"""The benchmark's own tests: ``python3 -m pytest rbench/tests -q``.

They run the real workloads at a tiny budget (``--quick``: one set-up
sample, one operation), so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import refspeed  # noqa: E402
from spantrace import (SpanRecorder, covered_by_roots,  # noqa: E402
                       self_times)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_exactly_the_declared_metrics(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_refuses_to_run_without_the_checkout(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    dest = tmp_path / "rbench"
    dest.mkdir()
    for path in BENCH.glob("*.py"):
        (dest / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "rbench/run.py", "--workload", "map-milp", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=str(tmp_path),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# -- output checks -------------------------------------------------------------------
def test_corrupted_placement_is_caught():
    good = np.repeat(np.arange(8), 4)
    assert checks.placement_error(good, 32, 8, 4) is None
    bad = good.copy()
    bad[0] = bad[-1]          # node 0 loses a task, node 7 holds five
    assert "holds" in checks.placement_error(bad, 32, 8, 4)
    assert checks.placement_error(good[:-1], 32, 8, 4) is not None
    off = good.copy()
    off[3] = 8
    assert checks.placement_error(off, 32, 8, 4) is not None


def test_corrupted_mcl_and_payload_are_caught():
    assert checks.mcl_error(100.0, 100.0 * (1 + 1e-13)) is None
    assert checks.mcl_error(100.0, 101.0) is not None
    want = {"mapping": {"task_to_node": [0, 1, 2, 3]}, "report": {"mcl": 2.0}}
    swapped = {"mapping": {"task_to_node": [1, 0, 2, 3]}, "report": {"mcl": 2.0}}
    assert checks.payload_error(want, want) is None
    assert checks.payload_error(swapped, want) is not None
    ulp = {"mapping": want["mapping"],
           "report": {"mcl": float(np.nextafter(2.0, 3.0))}}
    assert checks.payload_error(ulp, want) is not None


def test_corrupted_mapping_fails_the_run(monkeypatch):
    """A mapper that returns a swapped placement makes the run incorrect."""
    harness.import_repro_from_checkout()
    import cell_map
    from repro.core.rahtm import RAHTMMapper
    from repro.mapping import Mapping

    original = RAHTMMapper.map

    def corrupt(self, graph, **kwargs):
        mapping = original(self, graph, **kwargs)
        t2n = mapping.task_to_node.copy()
        far = int(np.flatnonzero(t2n != t2n[0])[-1])
        t2n[0], t2n[far] = t2n[far], t2n[0]
        return Mapping(mapping.topology, t2n, mapping.tasks_per_node)

    monkeypatch.setattr(RAHTMMapper, "map", corrupt)
    monkeypatch.setattr(harness, "QUICK", True)
    result = harness.Result({m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    cell_map.run("map-milp", 1, 0.0, False, result)
    line = result.line()
    assert line["correct"] is False
    assert any("MCL" in e for e in result.errors)


# -- speed correction ----------------------------------------------------------------
def test_correction_pools_reports_and_takes_off_sampling_time():
    one = {"inverse_sum": 3.0, "count": 2, "sampling_s": 0.1, "wall_s": 2.0}
    # One process: the sampling time comes off, then the mean speed scales.
    assert refspeed.correct(2.0, [one]) == pytest.approx((2.0 - 0.1) * 1.5)
    other = {"inverse_sum": 1.0, "count": 2, "sampling_s": 0.3, "wall_s": 2.0}
    # Pooled: every sample counts once, sampling is a share of all time.
    assert refspeed.correct(2.0, [one, other]) == pytest.approx(
        2.0 * (1 - 0.4 / 4.0) * (4.0 / 4))


def test_sampler_reports_what_correct_needs():
    with refspeed.Sampler() as sampler:
        time.sleep(0.05)
    report = sampler.report()
    assert report["count"] >= 1 and report["inverse_sum"] > 0
    assert 0 < report["sampling_s"] < report["wall_s"]
    assert refspeed.correct(0.05, [report]) > 0


# -- spans ---------------------------------------------------------------------------
def _attr_state(table):
    return [(owner, attr, owner.__dict__.get(attr) if isinstance(owner, type)
             else getattr(owner, attr)) for owner, attr, _ in table]


def test_wrappers_restore_every_patched_attribute():
    harness.import_repro_from_checkout()
    tables = layers.map_table() + layers.serve_table() + layers.fleet_table()
    before = _attr_state(tables)
    rec = SpanRecorder()
    with rec:
        for owner, attr, name in tables:
            rec.wrap(owner, attr, name, tap=lambda args, ret: None)
        assert all(state is not now for (_, _, state), (_, _, now)
                   in zip(before, _attr_state(tables)))
    after = _attr_state(tables)
    for (owner, attr, was), (_, _, now) in zip(before, after):
        assert was is now, f"{owner}.{attr} not restored"


def test_wrapped_calls_record_spans_and_return_values():
    class Thing:
        def work(self, x):
            return x * 2

        @staticmethod
        def helper(x):
            return x + 1

    class Child(Thing):
        pass

    rec = SpanRecorder()
    seen = []
    with rec:
        rec.wrap(Child, "work", "thing.work", tap=lambda a, r: seen.append(r))
        rec.wrap(Thing, "helper", "thing.helper")
        assert Child().work(3) == 6
        assert Thing.helper(1) == 2
    assert "work" not in Child.__dict__
    assert [s[0] for s in rec.spans] == ["thing.work", "thing.helper"]
    assert seen == [6]


def test_self_times_sum_to_time_covered_by_outermost_spans():
    rec = SpanRecorder()

    def nest(depth):
        with rec.span(f"d{depth}"):
            time.sleep(0.001)
            if depth < 3:
                nest(depth + 1)
                nest(depth + 1)
            time.sleep(0.0005)

    nest(0)
    nest(1)
    selfs = self_times(rec.spans)
    assert all(s >= 0 for s in selfs)
    assert math.isclose(sum(selfs), covered_by_roots(rec.spans),
                        rel_tol=1e-9, abs_tol=1e-12)
    # A leaf's self time is its whole duration.
    leaf = max(range(len(rec.spans)), key=lambda i: rec.spans[i][0])
    name, start, end, _ = rec.spans[leaf]
    assert selfs[leaf] == pytest.approx(end - start)
