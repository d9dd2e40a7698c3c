"""The benchmark's fixed inputs, shared by the workloads and the
fresh-process set-up probes. Imports from ``repro`` stay inside the
functions so ``probe.py`` can time ``import repro`` on its own."""

from __future__ import annotations

from dataclasses import dataclass, replace

#: The two tenants of serve-open.
TENANTS = ("alpha", "beta")


@dataclass
class MapCell:
    topology: object
    graph: object
    config: object
    dim_orders: tuple[str, ...]

    def mapper(self):
        from repro.core.rahtm import RAHTMMapper

        return RAHTMMapper(self.topology, self.config)


def map_cell(workload: str) -> MapCell:
    """map-stitch: NAS CG, 2,048 tasks, class D, on a 4x4x4x2 torus with
    the paper-ci RAHTM settings (greedy phase 2, no clock anywhere).
    map-milp: NAS BT, 256 tasks, class C, on a 4x4x4 torus with the
    small-scale settings, MILP on without a time limit, C3 off."""
    from repro.experiments.config import SCALES
    from repro.topology import torus
    from repro.workloads import nas_bt, nas_cg

    if workload == "map-stitch":
        return MapCell(torus(4, 4, 4, 2), nas_cg(2048, "D"),
                       SCALES["paper-ci"].rahtm,
                       ("ABCDT", "TABCD", "ACDBT"))
    if workload == "map-milp":
        small = SCALES["small"]
        return MapCell(torus(4, 4, 4), nas_bt(256, "C"),
                       replace(small.rahtm, milp_time_limit=None,
                               enforce_minimal=False),
                       small.dim_orders)
    raise ValueError(f"not a map workload: {workload}")


def baseline_mcls(topology, graph, dim_orders) -> dict[str, float]:
    """MCL of each baseline of the cell under minimal adaptive routing:
    the dimension orders, Hilbert and RHT."""
    from repro.baselines.dimorder import DimOrderMapper
    from repro.baselines.hilbert import HilbertMapper
    from repro.baselines.rubik import RubikTilingMapper
    from repro.metrics import evaluate_mapping
    from repro.routing import MinimalAdaptiveRouter

    router = MinimalAdaptiveRouter(topology)
    mappers = {o: DimOrderMapper(topology, o) for o in dim_orders}
    mappers["Hilbert"] = HilbertMapper(topology)
    mappers["RHT"] = RubikTilingMapper(topology)
    return {label: float(evaluate_mapping(router, m.map(graph), graph).mcl)
            for label, m in mappers.items()}


def fleet_jobs(seed: int):
    """Six tiny-scale RAHTM jobs: NAS CG, BT and SP with 64 tasks, each
    under two mapper seeds derived from the workload seed."""
    from repro.experiments.config import SCALES
    from repro.service.jobs import (MapperConfig, MappingJob, TopologySpec,
                                    WorkloadSpec)

    tiny = SCALES["tiny"]
    topo = TopologySpec.from_topology(tiny.topology())
    jobs = []
    for kind in ("cg", "bt", "sp"):
        for s in (2 * seed, 2 * seed + 1):
            jobs.append(MappingJob(
                topology=topo,
                workload=WorkloadSpec(f"{kind}:64:{tiny.problem_class}"),
                mapper=MapperConfig.from_rahtm(replace(tiny.rahtm, seed=s)),
            ))
    return jobs


def serve_job(index: int, seed: int):
    """A cheap cold job: dimension order mapping of a small synthetic
    graph whose generator seed is unique to (workload seed, index)."""
    from repro.service.jobs import (MapperConfig, MappingJob, TopologySpec,
                                    WorkloadSpec)

    return MappingJob(
        topology=TopologySpec((4, 4, 4), (True, True, True)),
        workload=WorkloadSpec("random:64:160", seed=seed * 1_000_003 + index),
        mapper=MapperConfig.make("dimorder"),
    )


def build_for_setup(workload: str) -> None:
    """What a fresh process builds before its first operation."""
    if workload in ("map-stitch", "map-milp"):
        from repro.routing import MinimalAdaptiveRouter

        cell = map_cell(workload)
        cell.mapper()
        MinimalAdaptiveRouter(cell.topology)
    elif workload == "fleet-batch":
        import harness
        from repro.service.engine import MappingEngine

        path = harness.work_dir("probe")
        try:
            MappingEngine(cache_dir=path, jobs=2, backend="distributed")
        finally:
            harness.remove_work()
    else:
        raise ValueError(f"no set-up probe for {workload}")
