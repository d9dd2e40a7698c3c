"""map-stitch and map-milp: one ``RAHTMMapper.map()`` per operation.

Each operation builds a fresh mapper over a cleared stencil memo in this
long-lived process and is speed-corrected by sampling the core while it
runs (see ``refspeed.Sampler``; traced runs are not sampled): with the
interpreter kernel on map-stitch, with the MILP kernel on map-milp,
whose time is mostly spent inside HiGHS. The peak RSS is that of the
maps alone: it is restarted before each map and read right after it,
so the baselines and the checks do not count. Every mapping is checked:
a valid placement, the mapper's reported MCL equal to
``evaluate_mapping`` under ``MinimalAdaptiveRouter``, and the same
placement on every operation.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

import cells
import checks
import harness
import layers
import refspeed
from spantrace import SpanRecorder

KERNELS = {"map-stitch": refspeed.MINI, "map-milp": refspeed.MILP}


def run(workload: str, seed: int, seconds: float, trace: bool,
        result: harness.Result) -> None:
    del seed  # the cell is fixed; see README.md ("Seeds")
    with harness.pinned():
        _run(workload, seconds, trace, result)


def _run(workload: str, seconds: float, trace: bool,
         result: harness.Result) -> None:
    from repro.metrics import evaluate_mapping
    from repro.routing import MinimalAdaptiveRouter
    from repro.routing.base import clear_stencil_cache

    t0 = time.perf_counter()
    cell = cells.map_cell(workload)
    build_s = time.perf_counter() - t0
    baselines = cells.baseline_mcls(cell.topology, cell.graph, cell.dim_orders)
    best = min(baselines.values())
    harness.info(f"baselines {baselines}; best {best!r}")
    router = MinimalAdaptiveRouter(cell.topology)
    num_nodes = cell.topology.num_nodes
    per_node = cell.graph.num_tasks // num_nodes

    setup, reports = harness.probe_setup(workload)

    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        layers.install_map(recorder)
    ops, stats, first, peak = [], [], None, 0.0
    deadline = harness.Deadline(seconds)
    try:
        while deadline.more():
            clear_stencil_cache()
            mapper = cell.mapper()
            result.attempted += 1
            op = recorder.span("op") if recorder is not None else nullcontext()
            sampler = (refspeed.Sampler(KERNELS[workload])
                       if recorder is None else None)
            harness.reset_peak_rss()
            try:
                with sampler or nullcontext(), op:
                    t0 = time.perf_counter()
                    mapping = mapper.map(cell.graph)
                    raw = time.perf_counter() - t0
                peak = max(peak, harness.peak_rss_mb())
            except Exception as exc:  # a failed operation, not a crash
                result.failed += 1
                harness.info(f"map failed: {type(exc).__name__}: {exc}")
                deadline.done(time.perf_counter() - t0)
                continue
            deadline.done(raw)
            ops.append((raw, sampler.report() if sampler else None))
            stats.append(mapper.stats)
            if mapper.stats.get("degradation"):
                result.failed += 1
            mcl = float(evaluate_mapping(router, mapping, cell.graph).mcl)
            err = (checks.placement_error(mapping.task_to_node,
                                          cell.graph.num_tasks, num_nodes,
                                          per_node)
                   or checks.mcl_error(float(mapper.stats["refined_mcl"]), mcl))
            if first is None:
                first = (mapping.task_to_node.copy(), mcl)
            elif (mapping.task_to_node != first[0]).any() or mcl != first[1]:
                err = err or "mapping differs between repeated maps"
            if err:
                result.fail(err)
    finally:
        if recorder is not None:
            recorder.close()
    if not ops:
        result.fail("no map completed")
        return
    times = harness.Timings()
    for raw, report in ops:
        times.add(raw, refspeed.correct(raw, [report]) if report else raw)
    mcl = first[1]
    harness.info(f"MCL {mcl!r}; reported-vs-evaluated relative difference "
                 f"{abs(stats[0]['refined_mcl'] - mcl) / mcl:.2e}")
    harness.info(f"maps: {times.describe()}")
    harness.info(f"setup: {setup.describe()}")
    harness.info(f"peak RSS of the maps: {peak:.1f} MB")
    if not trace:
        result.end_to_end(setup.median(), times.median(), mcl / best, peak)
        return
    per = layers.map_layers(recorder.spans, len(times))
    per["core.merge.evaluations"] = float(np.median(
        [s.get("merge_evaluations", 0) for s in stats]))
    per["mcl.stitch"] = stats[0].get("stitch_mcl", 0.0) / best
    per["mcl.refine"] = stats[0]["refined_mcl"] / best
    per["import_s"] = float(np.median(reports["import_s"]))
    per["workloads.build_s"] = build_s
    layers.finish(result, per, recorder.spans, op_seconds=sum(times.raw))
