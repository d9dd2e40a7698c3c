"""Bitwise-equivalence properties of the vectorized hot-path kernels.

The vectorized CSR routing path, the batched orientation transform, the
pair-delta scatter plans and the chunked expansion are all *defined* as
bitwise-identical reorderings-free rewrites of the scalar reference
loops. These tests pin that contract on mixed-radix tori up to the
paper's 4x4x4x4x2 BG/Q shape and on meshes: every comparison is ``==``
on float64 arrays, never ``allclose``.
"""

import numpy as np
import pytest

from repro.commgraph import CommGraph
from repro.core.merge import MergeBlock, MergeConfig, _MergeEngine
from repro.core.milp import solve_cluster_milp
from repro.core.orientation import all_orientations, apply_batch
from repro.routing import DimensionOrderRouter, MinimalAdaptiveRouter
from repro.routing.base import (
    Router,
    clear_stencil_cache,
    scalar_routing_requested,
)
from repro.routing.valiant import ValiantRouter
from repro.topology import CartesianTopology, hypercube

SHAPES = [(4, 4), (4, 2), (3, 5, 2), (4, 4, 4), (2, 3, 4, 5), (4, 4, 4, 4, 2)]

ROUTERS = [
    ("mar", MinimalAdaptiveRouter),
    ("dor", DimensionOrderRouter),
    ("valiant", ValiantRouter),
]


def flows_for(topo, n, seed):
    rng = np.random.default_rng(seed)
    srcs = rng.integers(0, topo.num_nodes, size=n)
    dsts = rng.integers(0, topo.num_nodes, size=n)
    vols = rng.random(n) * 1e3
    return srcs, dsts, vols


@pytest.mark.parametrize("shape", SHAPES, ids=[str(s) for s in SHAPES])
@pytest.mark.parametrize("name,cls", ROUTERS, ids=[r[0] for r in ROUTERS])
def test_vectorized_link_loads_bitwise_equals_scalar(shape, name, cls):
    """The CSR scatter path reproduces the per-group scalar loop bit for
    bit, on every router family and mixed-radix torus."""
    clear_stencil_cache()
    topo = CartesianTopology(shape, wrap=True)
    fast = cls(topo)
    slow = cls(topo, scalar_fallback=True)
    srcs, dsts, vols = flows_for(topo, 300, seed=hash((shape, name)) % 2**31)
    a = fast.link_loads(srcs, dsts, vols)
    b = slow.link_loads(srcs, dsts, vols)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(4, 4, 4), (4, 4, 4, 4, 2)],
                         ids=["4x4x4", "bgq"])
def test_link_loads_many_rows_bitwise_equal_solo(shape):
    """Each row of the batched scatter is exactly the solo accumulation."""
    topo = CartesianTopology(shape, wrap=True)
    router = MinimalAdaptiveRouter(topo)
    rng = np.random.default_rng(7)
    B, m = 5, 120
    srcs = rng.integers(0, topo.num_nodes, size=(B, m))
    dsts = rng.integers(0, topo.num_nodes, size=(B, m))
    vols = rng.random(m)
    out = np.zeros((B, topo.num_channel_slots))
    router.link_loads_many(srcs, dsts, vols, out)
    for b in range(B):
        solo = router.link_loads(srcs[b], dsts[b], vols)
        assert np.array_equal(out[b], solo)


@pytest.mark.parametrize("chunk", [1, 7, 64, 10**9])
def test_chunked_expansion_is_bitwise_invariant(chunk):
    """Splitting the expansion stream at any chunk size changes nothing:
    sequential scatter-adds over consecutive slices of one stream apply
    the identical addition sequence."""
    topo = CartesianTopology((3, 5, 2), wrap=True)
    reference = MinimalAdaptiveRouter(topo)
    chunked = MinimalAdaptiveRouter(topo)
    chunked._expansion_chunk = chunk
    srcs, dsts, vols = flows_for(topo, 250, seed=11)
    assert np.array_equal(
        reference.link_loads(srcs, dsts, vols),
        chunked.link_loads(srcs, dsts, vols),
    )
    B, m = 4, 60
    bs, bd = srcs[: B * m].reshape(B, m), dsts[: B * m].reshape(B, m)
    bv = vols[:m]
    out_a = np.zeros((B, topo.num_channel_slots))
    out_b = np.zeros((B, topo.num_channel_slots))
    reference.link_loads_many(bs, bd, bv, out_a)
    chunked.link_loads_many(bs, bd, bv, out_b)
    assert np.array_equal(out_a, out_b)


def test_scatter_plan_replays_link_loads_bitwise():
    topo = CartesianTopology((4, 4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    srcs, dsts, vols = flows_for(topo, 200, seed=3)
    plan = router.scatter_plan(srcs, dsts)
    out = np.zeros(topo.num_channel_slots)
    plan.add_into(out, vols)
    assert np.array_equal(out, router.link_loads(srcs, dsts, vols))


def test_pair_scatter_propose_rollback_is_exact():
    """A PairPlan applied with sign=+1 matches link_loads bitwise, and
    with sign=-1 it replays ``link_loads`` of the *negated* volumes
    bitwise (IEEE negation is exact: ``(-v)*f == -(v*f)``) — the refine
    loop's propose/rollback contract."""
    topo = CartesianTopology((4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    srcs, dsts, vols = flows_for(topo, 80, seed=5)
    plan = router.pair_scatter(srcs, dsts, vols)
    fresh = np.zeros(topo.num_channel_slots)
    plan.add_into(fresh)
    assert np.array_equal(fresh, router.link_loads(srcs, dsts, vols))
    base = router.link_loads(*flows_for(topo, 50, seed=6))
    undone = base.copy()
    plan.add_into(undone, sign=-1.0)
    reference = base.copy()
    router.link_loads(srcs, dsts, -vols, out=reference)
    assert np.array_equal(undone, reference)


NON_TORI = [
    ("mesh4x4", CartesianTopology((4, 4), wrap=False)),
    ("mixed4x3", CartesianTopology((4, 3), wrap=(True, False))),
    ("hypercube3", hypercube(3, wrap=False)),
]


@pytest.mark.parametrize("topo", [t for _, t in NON_TORI],
                         ids=[n for n, _ in NON_TORI])
@pytest.mark.parametrize("cls", [MinimalAdaptiveRouter, DimensionOrderRouter],
                         ids=["mar", "dor"])
def test_vectorized_kernels_bitwise_equal_scalar_on_meshes(topo, cls):
    """On mesh and mixed-wrap dimensions the translation-table lookup
    (offset reduced mod k, sum reduced mod k) is exact, so every
    vectorized kernel matches the scalar path's coordinate arithmetic."""
    fast = cls(topo)
    slow = cls(topo, scalar_fallback=True)
    srcs, dsts, vols = flows_for(topo, 200, seed=topo.num_nodes)
    ref = slow.link_loads(srcs, dsts, vols)
    assert np.array_equal(fast.link_loads(srcs, dsts, vols), ref)
    assert fast._plus is not None and slow._plus is None

    B, m = 4, 50
    bs, bd, bv = srcs[: B * m].reshape(B, m), dsts[: B * m].reshape(B, m), vols[:m]
    out = np.zeros((B, topo.num_channel_slots))
    fast.link_loads_many(bs, bd, bv, out)
    for b in range(B):
        assert np.array_equal(out[b], slow.link_loads(bs[b], bd[b], bv))

    plan = fast.pair_scatter(srcs, dsts, vols)
    assert np.array_equal(plan.add_into(np.zeros_like(ref)), ref)
    assert np.array_equal(
        plan.add_into(np.zeros_like(ref), sign=-1.0),
        slow.link_loads(srcs, dsts, -vols),
    )


def coordinate_slots(topo, src_nodes, offsets, dims, dirs):
    """Slot ids from coordinates: ``(coords[src] + offset) mod shape``."""
    nodes = 0
    for d, (k, stride) in enumerate(zip(topo.shape, topo.strides)):
        nodes = nodes + (topo.coords_array[src_nodes, d] + offsets[..., d]) % k * stride
    return (nodes * topo.ndim + dims) * 2 + dirs


def test_translation_table_equals_coordinate_arithmetic_bgq():
    """Every (node, table entry) pair on the paper's 4x4x4x4x2 shape gets
    the same channel slot from the table lookup as from coordinate
    arithmetic — through the table-entry kernel and through
    :meth:`Router.stencil_slots`."""
    topo = CartesianTopology((4, 4, 4, 4, 2), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    V = topo.num_nodes
    for dst in range(V):
        router.stencil(topo.delta(np.array([0]), np.array([dst]))[0])
    router._refresh_table()
    router._build_pair_tables()
    dims = np.concatenate([st.dims for st in router._stencil_seq])
    dirs = np.concatenate([st.dirs for st in router._stencil_seq])
    entries = np.arange(len(dims), dtype=np.int64)[None, :]
    all_nodes = np.arange(V)
    for chunk in np.split(all_nodes[:, None], 32):
        ref = coordinate_slots(topo, chunk, router._tab_offsets[None], dims, dirs)
        assert np.array_equal(router._entry_slots(chunk, entries), ref)
    for st in router._stencil_seq:
        ref = coordinate_slots(
            topo, all_nodes[:, None], st.offsets[None], st.dims, st.dirs
        )
        assert np.array_equal(router.stencil_slots(st, all_nodes), ref)


def test_pair_scatter_above_pair_table_budget():
    """Above the all-pairs budget no tables are built and the coordinate
    arithmetic serves the same bitwise plans."""
    topo = CartesianTopology((50, 50), wrap=True)
    assert topo.num_nodes ** 2 * (topo.ndim + 1) > Router._pair_table_budget
    router = MinimalAdaptiveRouter(topo)
    slow = MinimalAdaptiveRouter(topo, scalar_fallback=True)
    srcs, dsts, vols = flows_for(topo, 40, seed=17)
    plan = router.pair_scatter(srcs, dsts, vols)
    assert router._plus is None and router._pair_keys is None
    ref = slow.link_loads(srcs, dsts, vols)
    assert np.array_equal(plan.add_into(np.zeros_like(ref)), ref)
    assert np.array_equal(
        plan.add_into(np.zeros_like(ref), sign=-1.0),
        slow.link_loads(srcs, dsts, -vols),
    )


def test_scalar_escape_hatch_env(monkeypatch):
    """``REPRO_SCALAR_ROUTING=1`` flips new routers to the scalar
    reference path — and the results still agree bitwise."""
    topo = CartesianTopology((4, 2), wrap=True)
    vec = MinimalAdaptiveRouter(topo)
    monkeypatch.setenv("REPRO_SCALAR_ROUTING", "1")
    assert scalar_routing_requested()
    scal = MinimalAdaptiveRouter(topo)
    assert scal.scalar_fallback and not vec.scalar_fallback
    srcs, dsts, vols = flows_for(topo, 60, seed=9)
    assert np.array_equal(
        vec.link_loads(srcs, dsts, vols), scal.link_loads(srcs, dsts, vols)
    )
    monkeypatch.setenv("REPRO_SCALAR_ROUTING", "0")
    assert not scalar_routing_requested()


@pytest.mark.parametrize("ndim,shape", [(2, (4, 4)), (3, (2, 2, 2))])
def test_apply_batch_bitwise_equals_per_orientation_apply(ndim, shape):
    orients = all_orientations(ndim)
    rng = np.random.default_rng(1)
    coords = rng.integers(0, min(shape), size=(40, ndim))
    batch = apply_batch(orients, coords, shape)
    for i, o in enumerate(orients):
        assert np.array_equal(batch[i], o.apply(coords, shape))


def test_pair_mcl_batch_bitwise_equals_solo_pair_mcl():
    topo = CartesianTopology((4, 4), wrap=True)
    router = MinimalAdaptiveRouter(topo)
    blocks = [
        MergeBlock(
            origin=np.array([0, 0]), shape=(2, 2),
            clusters=np.array([0, 1, 2, 3]),
            local_coords=np.array([[0, 0], [0, 1], [1, 0], [1, 1]]),
        ),
        MergeBlock(
            origin=np.array([0, 2]), shape=(2, 2),
            clusters=np.array([4, 5, 6, 7]),
            local_coords=np.array([[0, 0], [0, 1], [1, 0], [1, 1]]),
        ),
    ]
    rng = np.random.default_rng(2)
    srcs = rng.integers(0, 8, size=40)
    dsts = rng.integers(0, 8, size=40)
    vols = rng.random(40) * 100
    engine = _MergeEngine(
        topo, router, blocks, srcs, dsts, vols,
        MergeConfig(beam_width=4, seed=0), num_clusters=8,
    )
    n1, n2 = len(engine.orients[0]), len(engine.orients[1])
    pairs = [(o1, o2) for o1 in range(n1) for o2 in range(n2)]
    batch = engine.pair_mcl_batch(0, 0, 1, 1, pairs)
    solo = np.array([engine.pair_mcl(0, 0, o1, 1, 1, o2) for o1, o2 in pairs])
    assert np.array_equal(batch, solo)


def test_milp_warm_start_preserves_optimum():
    """The warm-start upper bound is a feasible incumbent's objective, so
    it can never cut off the optimum: warm and cold solves agree."""
    cube = CartesianTopology((2, 2, 2), wrap=False)
    rng = np.random.default_rng(4)
    edges = [
        (int(s), int(d), float(v))
        for s, d, v in zip(
            rng.integers(0, 8, size=20),
            rng.integers(0, 8, size=20),
            rng.random(20) * 10 + 1,
        )
        if s != d
    ]
    local = CommGraph.from_edges(8, edges)
    cold = solve_cluster_milp(cube, local, time_limit=30.0)
    seed = np.arange(8, dtype=np.int64)[::-1].copy()
    warm = solve_cluster_milp(cube, local, time_limit=30.0,
                              warm_assignment=seed)
    assert cold.optimal and warm.optimal
    # Same optimum up to the solver's MIP tolerance; the bound may still
    # change which optimal incumbent HiGHS reports (why warm start is
    # opt-in for bitwise-gated runs).
    assert warm.mcl == pytest.approx(cold.mcl, rel=1e-5)
    assert "warm_mcl" in (warm.extras or {})


def test_warm_start_ignores_invalid_seed():
    cube = CartesianTopology((2, 2), wrap=False)
    local = CommGraph.from_edges(4, [(0, 1, 5.0), (2, 3, 2.0)])
    bad = np.zeros(4, dtype=np.int64)  # non-injective: silently unused
    res = solve_cluster_milp(cube, local, time_limit=10.0,
                             warm_assignment=bad)
    assert res.optimal
    assert "warm_mcl" not in (res.extras or {})


def test_stencil_memo_shared_across_router_instances():
    """The process-wide stencil memo serves congruent routers: a second
    router on the same topology reuses the first one's stencils (counted
    as hits), and the loads stay bitwise identical."""
    clear_stencil_cache()
    topo = CartesianTopology((4, 4), wrap=True)
    srcs, dsts, vols = flows_for(topo, 60, seed=13)
    r1 = MinimalAdaptiveRouter(topo)
    a = r1.link_loads(srcs, dsts, vols)
    assert len(r1._stencils) > 0
    r2 = MinimalAdaptiveRouter(topo)
    b = r2.link_loads(srcs, dsts, vols)
    assert np.array_equal(a, b)
    # Identity, not equality: r2's stencils are r1's objects, served
    # from the process-wide memo instead of rebuilt.
    assert r2._stencils
    for key, st in r2._stencils.items():
        assert st is r1._stencils[key]
    clear_stencil_cache()
