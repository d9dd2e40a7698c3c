"""Optional post-merge refinement (Section VI: "techniques to reduce the
mapping computation without sacrificing the quality of mapping").

A cheap annealed pairwise-swap pass over the final cluster placement,
driven by the same MCL objective and incremental load updates. RAHTM's
hierarchical structure restricts mappings to compositions of block
orientations; this pass explores the unstructured neighborhood the
hierarchy cannot reach and typically shaves a few percent of MCL at the
cost of seconds.
"""

from __future__ import annotations

import numpy as np

from repro.commgraph.graph import CommGraph
from repro.errors import ConfigError
from repro.routing.base import Router
from repro.utils.logconf import get_logger
from repro.utils.rng import as_rng

__all__ = ["refine_assignment"]

log = get_logger("core.refine")


def refine_assignment(
    router: Router,
    node_graph: CommGraph,
    assignment: np.ndarray,
    iterations: int,
    seed=0,
    temperature: float | None = None,
) -> tuple[np.ndarray, float]:
    """Annealed cluster-swap refinement of a placement.

    Parameters
    ----------
    router:
        Evaluation router (bound to the target topology).
    node_graph:
        Cluster-level communication graph.
    assignment:
        Bijective cluster -> node placement to refine (not modified).
    iterations:
        Swap proposals; 0 returns the input unchanged.
    temperature:
        Initial annealing temperature; defaults to 2% of the starting MCL.

    Returns
    -------
    (refined_assignment, refined_mcl)
    """
    V = router.topology.num_nodes
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    if len(assignment) != V or len(np.unique(assignment)) != V:
        raise ConfigError("assignment must be a bijection of clusters onto nodes")
    mask = node_graph.srcs != node_graph.dsts
    srcs, dsts = node_graph.srcs[mask], node_graph.dsts[mask]
    vols = node_graph.vols[mask]

    incident: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * node_graph.num_tasks
    by_cluster: dict[int, list[int]] = {}
    for e, (s, d) in enumerate(zip(srcs, dsts)):
        by_cluster.setdefault(int(s), []).append(e)
        by_cluster.setdefault(int(d), []).append(e)
    for c, es in by_cluster.items():
        incident[c] = np.unique(np.asarray(es, dtype=np.int64))

    loads = router.link_loads(assignment[srcs], assignment[dsts], vols)
    cost = float(loads.max()) if loads.size else 0.0
    if iterations <= 0 or cost == 0.0:
        return assignment, cost

    rng = as_rng(seed)
    t0 = temperature if temperature is not None else 0.02 * cost
    alpha = (1e-3) ** (1.0 / iterations)
    temp = t0
    best, best_cost = assignment.copy(), cost
    n = node_graph.num_tasks
    # Pair plans replay each proposal's two load updates bitwise; a
    # rejected proposal reapplies both plans with the opposite sign
    # instead of recomputing the expansion (the propose/rollback
    # symmetry). The scalar escape hatch keeps the original per-call path.
    use_plans = not router.scalar_fallback
    for _ in range(iterations):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b:
            temp *= alpha
            continue
        edges = np.union1d(incident[a], incident[b])
        es, ed, ev = srcs[edges], dsts[edges], vols[edges]
        if use_plans:
            plan_old = router.pair_scatter(assignment[es], assignment[ed], ev)
            plan_old.add_into(loads, -1.0)
            assignment[a], assignment[b] = assignment[b], assignment[a]
            plan_new = router.pair_scatter(assignment[es], assignment[ed], ev)
            plan_new.add_into(loads, 1.0)
        else:
            nev = -ev
            router.link_loads(assignment[es], assignment[ed], nev, out=loads)
            assignment[a], assignment[b] = assignment[b], assignment[a]
            router.link_loads(assignment[es], assignment[ed], ev, out=loads)
        new_cost = float(loads.max())
        delta = new_cost - cost
        if delta <= 0 or rng.random() < np.exp(-delta / max(temp, 1e-30)):
            cost = new_cost
            if cost < best_cost - 1e-12:
                best_cost, best = cost, assignment.copy()
        elif use_plans:
            plan_new.add_into(loads, -1.0)
            assignment[a], assignment[b] = assignment[b], assignment[a]
            plan_old.add_into(loads, 1.0)
        else:
            router.link_loads(assignment[es], assignment[ed], nev, out=loads)
            assignment[a], assignment[b] = assignment[b], assignment[a]
            router.link_loads(assignment[es], assignment[ed], ev, out=loads)
        temp *= alpha
    log.debug("refined MCL to %.6g in %d proposals", best_cost, iterations)
    return best, best_cost
