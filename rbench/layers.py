"""Which public functions are wrapped, under which layer names, and how
the recorded spans become the per-layer metrics.

Every name is looked up where its caller looks it up: the mapper calls
``merge_blocks`` through ``repro.core.rahtm``'s namespace, refine
imports ``refine_assignment`` from ``repro.core.refine`` at call time,
and routers are called through their class.
"""

from __future__ import annotations

import numpy as np

import harness
from spantrace import covered_by_roots, self_times, summarize, wrapper_overhead_s


def wrap_all(recorder, table) -> None:
    for owner, attr, name in table:
        recorder.wrap(owner, attr, name)


def map_table():
    import repro.core.pseudo_pin as pseudo_pin_mod
    import repro.core.rahtm as rahtm_mod
    import repro.core.refine as refine_mod
    from repro.lp.model import Model
    from repro.routing.base import PairPlan, Router, ScatterPlan

    return [
        (Router, "link_loads", "routing.link_loads"),
        (Router, "link_loads_many", "routing.link_loads_many"),
        (Router, "pair_scatter", "routing.pair_scatter"),
        (Router, "scatter_plan", "routing.scatter_plan"),
        (Router, "stencil", "routing.stencil"),
        (PairPlan, "add_into", "routing.add_into"),
        (ScatterPlan, "add_into", "routing.add_into"),
        (rahtm_mod, "cluster_fixed_size", "core.clustering"),
        (rahtm_mod, "build_cluster_hierarchy", "core.clustering"),
        (rahtm_mod, "pseudo_pin", "core.pseudo_pin"),
        (pseudo_pin_mod, "solve_cluster_milp", "core.milp"),
        (Model, "solve", "lp.solve"),
        (rahtm_mod, "hierarchical_merge", "core.merge"),
        (rahtm_mod, "merge_blocks", "core.merge.stitch"),
        (refine_mod, "refine_assignment", "core.refine"),
    ]


def install_map(recorder) -> None:
    wrap_all(recorder, map_table())


def serve_table():
    from repro.serve.admission import AdmissionController
    from repro.serve.daemon import MappingDaemon
    from repro.serve.queueing import FairQueue
    from repro.service.engine import MappingEngine
    from repro.service.executor import BatchExecutor
    from repro.service.store import ResultStore

    return [
        (MappingDaemon, "submit", "op"),
        (AdmissionController, "admit", "serve.admission"),
        (AdmissionController, "release", "serve.admission"),
        (FairQueue, "push", "serve.queueing"),
        (FairQueue, "pop", "serve.queueing"),
        (FairQueue, "charge", "serve.queueing"),
        (MappingEngine, "run", "service.engine"),
        (BatchExecutor, "run", "service.executor"),
        (ResultStore, "put", "service.store.put"),
        (ResultStore, "get", "service.store.get"),
    ]


def fleet_table():
    from repro.distributed.board import JobBoard
    from repro.distributed.coordinator import DistributedExecutor
    from repro.distributed.spawn import SubprocessSpawner
    from repro.service.engine import MappingEngine
    from repro.service.store import ResultStore

    return [
        (MappingEngine, "run", "service.engine"),
        (DistributedExecutor, "run", "distributed.coordinator"),
        (SubprocessSpawner, "spawn", "distributed.spawn"),
        (JobBoard, "read_receipt", "distributed.board"),
        (JobBoard, "claim_info", "distributed.board"),
        (JobBoard, "post", "distributed.board"),
        (ResultStore, "put", "service.store.put"),
        (ResultStore, "get", "service.store.get"),
    ]


def busy(summary: dict, prefix: str, ops: int) -> float:
    total = sum(doc["self_s"] for name, doc in summary.items()
                if name == prefix or name.startswith(prefix + "."))
    return total / ops


def calls(summary: dict, name: str, ops: int) -> float:
    return summary.get(name, {"calls": 0})["calls"] / ops


def per_call_ms(summary: dict, name: str) -> float:
    """Median milliseconds of one call of ``name`` (0 when never called)."""
    doc = summary.get(name)
    return 1000 * float(np.median(doc["durations"])) if doc else 0.0


def map_layers(spans, ops: int) -> dict[str, float]:
    """Per-map layer figures (seconds of self time, calls per map)."""
    s = summarize(spans)
    return {
        "routing.busy_s": busy(s, "routing", ops),
        "routing.link_loads.calls": calls(s, "routing.link_loads", ops),
        "routing.link_loads_many.calls":
            calls(s, "routing.link_loads_many", ops),
        "routing.pair_scatter.calls": calls(s, "routing.pair_scatter", ops),
        "core.merge.stitch_busy_s":
            s.get("core.merge.stitch", {"self_s": 0.0})["self_s"] / ops,
        "core.merge.busy_s":
            s.get("core.merge", {"self_s": 0.0})["self_s"] / ops,
        "core.refine.busy_s": busy(s, "core.refine", ops),
        "core.pseudo_pin.busy_s": busy(s, "core.pseudo_pin", ops),
        "core.milp.calls": calls(s, "core.milp", ops),
        "core.milp.busy_s": busy(s, "core.milp", ops),
        "lp.solves": calls(s, "lp.solve", ops),
        "lp.solve_busy_s": busy(s, "lp.solve", ops),
        "core.clustering.busy_s": busy(s, "core.clustering", ops),
    }


def op_unattributed_s(spans) -> tuple[float, int, float]:
    """(self time of the ``op`` roots, their count, their total time)."""
    selfs = self_times(spans)
    ops = [(sp, st) for sp, st in zip(spans, selfs) if sp[0] == "op"]
    return (sum(st for _, st in ops), len(ops),
            sum(sp[2] - sp[1] for sp, _ in ops))


def finish(result: "harness.Result", per: dict, spans, op_seconds: float,
           overhead_per_call: float | None = None) -> None:
    """Add the trace-health figures, zero the layers this workload does
    not reach, and put every per-layer metric into ``result``."""
    unattributed, ops, op_total = op_unattributed_s(spans)
    per["unattributed_s"] = unattributed / ops if ops else 0.0
    if overhead_per_call is None:
        overhead_per_call = wrapper_overhead_s()
    wrapped_calls = sum(1 for sp in spans if sp[0] != "op")
    per["trace.overhead_ratio"] = (wrapped_calls * overhead_per_call
                                   / max(op_seconds, 1e-9))
    if op_total:
        harness.info(f"named layers cover {1 - unattributed / op_total:.1%} "
                     f"of {ops} traced op(s); {wrapped_calls} wrapped calls; "
                     f"self times sum to {sum(self_times(spans)):.4f} s, "
                     f"roots cover {covered_by_roots(spans):.4f} s")
    for name in result.declared:
        result.put(name, per.get(name, 0.0))
