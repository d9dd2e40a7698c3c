"""fleet-batch: six tiny RAHTM jobs through the distributed backend.

Each operation is one batch on a fresh cache directory through
``MappingEngine(backend="distributed")`` with two spawned workers, so
its makespan covers worker spawn and import, claim polling, execution,
store commit, receipt and settle. The coordinator and both workers
sample their cores' speed while they work (``refspeed.Sampler``, in the
workers through ``site/sitecustomize.py``), and the makespan is
corrected with the pooled samples. The peak RSS is the largest of the
coordinator's during the batch (this process's peak is restarted before
it, so the reference maps do not count) and each worker's, read just
before the workers are stopped. Every result is compared bit for bit
with an in-process map of the same spec.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import cells
import checks
import harness
import layers
import refspeed
from spantrace import SpanRecorder

WORKERS = 2


class FleetTaps:
    """What the coordinator reads from the board, captured per batch."""

    def __init__(self):
        self.posted: dict[str, float] = {}
        self.receipts: dict[str, tuple[dict, float]] = {}
        self.spawned: list[float] = []

    def install(self, recorder) -> None:
        from repro.distributed.board import JobBoard
        from repro.distributed.spawn import SubprocessSpawner

        def on_post(args, ret):
            self.posted.setdefault(args[1], float(args[2]["posted_unix"]))

        def on_receipt(args, ret):
            if ret is not None and args[1] not in self.receipts:
                self.receipts[args[1]] = (ret, time.time())

        def on_spawn(args, ret):
            self.spawned.append(time.time())

        taps = {(JobBoard, "post"): on_post,
                (JobBoard, "read_receipt"): on_receipt,
                (SubprocessSpawner, "spawn"): on_spawn}
        for owner, attr, name in layers.fleet_table():
            recorder.wrap(owner, attr, name, tap=taps.get((owner, attr)))


def run(workload: str, seed: int, seconds: float, trace: bool,
        result: harness.Result) -> None:
    from repro.service.engine import MappingEngine
    from repro.service.jobs import execute_mapping_job

    jobs = cells.fleet_jobs(seed)
    t0 = time.perf_counter()
    graphs = [job.workload.build_graph() for job in jobs]
    build_s = time.perf_counter() - t0
    ref_recorder = SpanRecorder() if trace else None
    if ref_recorder is not None:
        layers.install_map(ref_recorder)
    with ref_recorder or nullcontext():
        want = [execute_mapping_job(job) for job in jobs]
    ratios = []
    for job, graph, payload in zip(jobs, graphs, want):
        best = min(cells.baseline_mcls(job.topology.build(), graph,
                                       ("ABT", "TAB", "BAT")).values())
        ratios.append(payload["report"]["mcl"] / best)
    mcl_ratio = harness.geomean(ratios)

    with harness.pinned():
        setup, reports = harness.probe_setup("fleet-batch")

    recorder = SpanRecorder() if trace else None
    rounds = []  # per batch: (FleetTaps, registrations, executed total)
    times = harness.Timings()
    peaks = {"coordinator": [], "workers": []}  # MB, per batch
    deadline = harness.Deadline(seconds)
    try:
        while deadline.more():
            taps = FleetTaps()
            if recorder is not None:
                taps.install(recorder)
            cache = harness.work_dir(f"fleet{deadline.count}")
            speed_dir = harness.work_dir(f"speed{deadline.count}")
            engine = MappingEngine(cache_dir=cache, jobs=WORKERS,
                                   backend="distributed")
            op = recorder.span("op") if recorder is not None else nullcontext()
            sampling = (harness.sampled_processes(speed_dir)
                        if recorder is None else nullcontext())
            harness.reset_peak_rss()
            try:
                with sampling as sampler, op:
                    t0 = time.perf_counter()
                    outcomes = engine.run(jobs)
                    raw = time.perf_counter() - t0
                peaks["coordinator"].append(harness.peak_rss_mb())
                registrations = [doc for _, doc, _ in
                                 engine.executor.board.list_workers() if doc]
                peaks["workers"] += [
                    harness.peak_rss_mb(doc["pid"]) for doc in registrations
                    if Path(f"/proc/{doc['pid']}").exists()]
            finally:
                engine.executor.stop_workers()
                if recorder is not None:
                    recorder.close()
            deadline.done(raw)
            executed = sum(int((doc or {}).get("executed", 0)) for _, doc, _
                           in engine.executor.board.list_worker_stats())
            rounds.append((taps, registrations, executed))
            times.add(raw, refspeed.correct(
                raw, harness.speed_reports(sampler, speed_dir))
                if sampler else raw)
            for job, outcome, ref in zip(jobs, outcomes, want):
                result.attempted += 1
                if not outcome.ok or outcome.result.degraded:
                    result.failed += 1
                    harness.info(f"fleet job failed: {outcome.error}")
                    continue
                got = engine.store.get(job.cache_key())
                err = (checks.payload_error(got, ref) if got is not None
                       else "fleet result missing from the store")
                if err:
                    result.fail(f"{job.describe()}: {err}")
    finally:
        if recorder is not None:
            recorder.close()
    harness.info(f"batches: {times.describe()}")
    harness.info(f"setup: {setup.describe()}")
    for role, values in peaks.items():
        harness.info(f"peak RSS of the {role}, MB: "
                     + ", ".join(f"{v:.1f}" for v in values))
    if not trace:
        result.end_to_end(setup.median(), times.median(), mcl_ratio,
                          max(peaks["coordinator"] + peaks["workers"]))
        return
    from spantrace import summarize

    s = summarize(recorder.spans)
    spawn_reg, claim_wait, execute, settle, execs = [], [], [], [], []
    for taps, registrations, executed in rounds:
        starts = sorted(float(d["started_unix"]) for d in registrations)
        spawn_reg += [b - a for a, b in zip(sorted(taps.spawned), starts)]
        for key, (receipt, seen_unix) in taps.receipts.items():
            claimed = receipt["time_unix"] - receipt["wall_seconds"]
            if key in taps.posted:
                claim_wait.append(claimed - taps.posted[key])
            execute.append(receipt["wall_seconds"])
            settle.append(seen_unix - receipt["time_unix"])
        execs.append(executed / len(jobs))
    ref = summarize(ref_recorder.spans)
    per = {
        "distributed.spawn_to_register_s": float(np.median(spawn_reg)),
        "distributed.claim_wait_ms": 1000 * float(np.median(claim_wait)),
        "distributed.execute_s": float(np.median(execute)),
        "distributed.settle_ms": 1000 * float(np.median(settle)),
        "fleet.executions_per_job": float(np.median(execs)),
        "fleet.reclaims": _counter("fleet.reclaims"),
        "service.engine.busy_s": layers.busy(s, "service.engine", len(times)),
        "service.store.get_ms": layers.per_call_ms(s, "service.store.get"),
        "core.clustering.busy_s": layers.busy(ref, "core.clustering",
                                               len(jobs)),
        "import_s": float(np.median(reports["import_s"])),
        "workloads.build_s": build_s,
    }
    layers.finish(result, per, recorder.spans, op_seconds=sum(times.raw))


def _counter(name: str) -> float:
    from repro.observability.metrics import get_registry

    doc = get_registry().snapshot().get(name)
    return float(doc["value"]) if doc else 0.0
