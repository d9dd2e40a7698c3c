"""Router interface and the stencil-based load computation engine.

A :class:`Stencil` describes, for one source-destination offset ``delta``,
which channels a unit flow touches and with what fraction, *relative to the
flow's source node*. Translation invariance of tori/meshes makes stencils
reusable across all flows sharing a ``delta``.

Two load paths share the stencil machinery:

- the **vectorized CSR path** (default): every cached stencil's entries
  live in one concatenated entry table (``indptr``-sliced, CSR style — the
  same flow x link representation the attribution layer derives); a call
  expands all flows to table entries at once and performs a *single*
  ordered ``np.add.at`` scatter. Entry expansion follows exactly the
  (offset-group, flow, entry) order of the scalar path, so per-slot
  accumulation order — and therefore every float in the result — is
  bitwise-identical to the scalar reference.
- the **scalar reference path**: the original one-scatter-per-offset-group
  loop, retained as the correctness oracle for the property tests and as
  an escape hatch (``REPRO_SCALAR_ROUTING=1`` in the environment, or
  ``Router(..., scalar_fallback=True)``) for environments where the
  batched numpy path misbehaves.

Both paths turn a (source node, stencil entry) pair into a channel slot
with one formula (:meth:`Router._slots`). For topologies within the
all-pairs budget that is a lookup in a ``(V, V)`` node-translation table
(``src + offset`` as a node id, built once on the first scoring call);
above it, coordinate arithmetic.

:meth:`Router.link_loads_many` scores many candidate flow sets (e.g. all
orientations of a merge-phase block) in one batched scatter — the merge
hot path — again bitwise-identical to per-candidate calls.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.observability.metrics import get_registry
from repro.topology.cartesian import CartesianTopology

__all__ = [
    "Stencil",
    "Router",
    "ScatterPlan",
    "PairPlan",
    "scalar_routing_requested",
    "clear_stencil_cache",
]


def scalar_routing_requested() -> bool:
    """True when the environment forces the scalar reference path."""
    return os.environ.get("REPRO_SCALAR_ROUTING", "").strip() not in ("", "0")


# Process-wide stencil memo. Stencils are pure functions of (router type
# and parameters, topology shape/wrap, delta), so routers with equal
# signatures share them across instances — repeated mapper runs (bench
# repeats, hierarchy levels, serve requests) skip rebuilding identical
# stencils. Sharing is bitwise-safe: the cached object is the exact array
# set a fresh build would produce, and consumers never mutate stencils.
_STENCIL_MEMO: dict[tuple, Stencil] = {}
_STENCIL_MEMO_CAP = 100_000


def clear_stencil_cache() -> None:
    """Drop the process-wide stencil memo (for tests and benchmarks)."""
    _STENCIL_MEMO.clear()


@dataclass(frozen=True)
class Stencil:
    """Per-channel unit-flow fractions for one source-relative offset.

    Attributes
    ----------
    offsets:
        (E, ndim) signed coordinate offsets of each channel's *source node*
        relative to the flow source.
    dims:
        (E,) dimension index of each channel.
    dirs:
        (E,) direction of each channel (0 = +, 1 = -).
    fracs:
        (E,) fraction of the flow volume carried (sums to hops-per-path
        averaged over paths, i.e. ``sum(fracs) == mean path length``).
    """

    offsets: np.ndarray
    dims: np.ndarray
    dirs: np.ndarray
    fracs: np.ndarray

    @property
    def num_entries(self) -> int:
        return len(self.fracs)

    @property
    def mean_path_length(self) -> float:
        """Expected hop count of the flow (== total fraction mass)."""
        return float(self.fracs.sum())


@dataclass(frozen=True)
class ScatterPlan:
    """Precomputed scatter expansion of one fixed (srcs, dsts) flow set.

    :meth:`add_into` replays the expansion against any volume vector:
    ``plan.add_into(out, vols)`` is bitwise-identical to
    ``router.link_loads(srcs, dsts, vols, out=out)`` for the endpoints
    the plan was built from. Hot loops that re-score the same flow set
    under several volume vectors pay the grouping + expansion cost once.
    """

    slots: np.ndarray     # (T,) channel-slot id per expanded entry
    fracs: np.ndarray     # (T,) stencil fraction per expanded entry
    flow_idx: np.ndarray  # (T,) index into the *original* vols array

    def add_into(self, out: np.ndarray, vols: np.ndarray) -> np.ndarray:
        np.add.at(out, self.slots, vols[self.flow_idx] * self.fracs)
        return out


@dataclass(frozen=True)
class PairPlan:
    """A scatter with contributions already multiplied in.

    ``add_into(out, sign=-1)`` scatters the exact negation — IEEE
    negation is exact, so propose/rollback loops replay removals
    bitwise without recomputing anything.
    """

    slots: np.ndarray    # (T,) channel-slot id per expanded entry
    contrib: np.ndarray  # (T,) volume x fraction per expanded entry

    def add_into(self, out: np.ndarray, sign: float = 1.0) -> np.ndarray:
        np.add.at(out, self.slots, self.contrib if sign > 0 else -self.contrib)
        return out


class Router(abc.ABC):
    """Routing model bound to one topology.

    Subclasses implement :meth:`_build_stencil`; everything else (caching,
    grouping, scatter-adds, MCL) is shared.

    Parameters
    ----------
    topology:
        Target topology.
    scalar_fallback:
        ``True`` forces the scalar reference implementation of
        :meth:`link_loads`; ``None`` (default) consults the
        ``REPRO_SCALAR_ROUTING`` environment variable.
    """

    name: str = "router"

    def __init__(
        self, topology: CartesianTopology, scalar_fallback: bool | None = None
    ):
        self.topology = topology
        self._stencils: dict[tuple[int, ...], Stencil] = {}
        if scalar_fallback is None:
            scalar_fallback = scalar_routing_requested()
        self.scalar_fallback = bool(scalar_fallback)
        # CSR stencil table: per-key ids into concatenated entry arrays,
        # rebuilt lazily whenever a new offset's stencil lands in the cache.
        self._stencil_seq: list[Stencil] = []
        self._stencil_ids: dict[tuple[int, ...], int] = {}
        self._table_dirty = True
        self._tab_indptr = np.zeros(1, dtype=np.int64)
        self._tab_offsets = np.empty((0, topology.ndim), dtype=np.int64)
        # Per entry: the offset reduced mod shape as a node id (the
        # translation-table column) and ``dim*2 + dir`` (the slot's
        # within-node part).
        self._tab_rel = np.empty(0, dtype=np.int64)
        self._tab_dd = np.empty(0, dtype=np.int64)
        self._tab_fracs = np.empty(0, dtype=np.float64)
        # Pairwise (src*V + dst) -> offset-key/delta lookup and the
        # (src*V + rel) -> node translation table, built lazily for
        # small-enough topologies: hot callers then skip per-call delta
        # reduction and coordinate arithmetic entirely.
        self._pair_keys: np.ndarray | None = None
        self._pair_deltas: np.ndarray | None = None
        self._plus: np.ndarray | None = None
        self._sid_by_key: dict[int, int] = {}
        # Dense key -> stencil id map (-1 = unseen) when the key space is
        # small enough; replaces the per-group dict loop with one gather.
        kspace = 1
        for k in topology.shape:
            kspace *= 2 * int(k) + 1
        self._sid_dense: np.ndarray | None = (
            np.full(kspace, -1, dtype=np.int64) if kspace <= 4_000_000 else None
        )
        self._wrap_dims = np.array(
            [d for d in range(topology.ndim) if topology.wrap[d]],
            dtype=np.int64,
        )
        self._shape_row = np.asarray(topology.shape, dtype=np.int64)[None, :]
        self._wrap_extents = self._shape_row[0, self._wrap_dims]
        self._all_wrap = len(self._wrap_dims) == topology.ndim
        # Bound once: stencil cache traffic is hot-path telemetry.
        registry = get_registry()
        self._m_stencil_hits = registry.counter("router.stencil_hits")
        self._m_stencil_misses = registry.counter("router.stencil_misses")
        self._m_load_calls = registry.counter("router.link_load_calls")
        self._m_batch_calls = registry.counter("router.batch_load_calls")
        self._m_scatter_entries = registry.counter("router.scatter_entries")

    # -- stencils -----------------------------------------------------------------
    def stencil(self, delta) -> Stencil:
        """Stencil for a signed per-dimension offset (cached)."""
        key = tuple(int(x) for x in np.asarray(delta).ravel())
        if len(key) != self.topology.ndim:
            raise RoutingError(
                f"delta has {len(key)} entries for a {self.topology.ndim}-D topology"
            )
        st = self._stencils.get(key)
        if st is None:
            gkey = (self._stencil_signature(), key)
            st = _STENCIL_MEMO.get(gkey)
            if st is None:
                self._m_stencil_misses.inc()
                st = self._build_stencil(key)
                if len(_STENCIL_MEMO) < _STENCIL_MEMO_CAP:
                    _STENCIL_MEMO[gkey] = st
            else:
                self._m_stencil_hits.inc()
            self._stencils[key] = st
            self._stencil_ids[key] = len(self._stencil_seq)
            self._stencil_seq.append(st)
            self._table_dirty = True
        else:
            self._m_stencil_hits.inc()
        return st

    def _stencil_signature(self) -> tuple:
        """Hashable identity of this router's stencil function.

        Routers with equal signatures produce identical stencils for any
        delta and therefore share the process-wide memo. Subclasses whose
        stencils depend on extra parameters must extend this.
        """
        t = self.topology
        return (
            f"{type(self).__module__}.{type(self).__qualname__}",
            tuple(int(x) for x in t.shape),
            tuple(bool(w) for w in t.wrap),
        )

    @abc.abstractmethod
    def _build_stencil(self, delta: tuple[int, ...]) -> Stencil:
        """Compute the stencil for one offset; called once per distinct offset."""

    def _refresh_table(self) -> None:
        """Rebuild the concatenated CSR entry table after cache growth."""
        if not self._table_dirty:
            return
        sts = self._stencil_seq
        counts = np.array([s.num_entries for s in sts], dtype=np.int64)
        self._tab_indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        )
        if sts:
            self._tab_offsets = np.concatenate(
                [np.atleast_2d(s.offsets).reshape(-1, self.topology.ndim)
                 for s in sts]
            )
            self._tab_rel, self._tab_dd = self._rel_dd(
                self._tab_offsets,
                np.concatenate([s.dims for s in sts]),
                np.concatenate([s.dirs for s in sts]),
            )
            self._tab_fracs = np.concatenate([s.fracs for s in sts])
        self._table_dirty = False

    def _rel_dd(self, offsets, dims, dirs):
        """Translation-table column and ``dim*2 + dir`` per stencil entry."""
        rel = (offsets % self._shape_row) @ self.topology.strides
        return rel, dims * 2 + dirs

    def _slots(self, src_nodes, entries, offsets, rel, dd) -> np.ndarray:
        """Channel-slot ids of entries ``entries`` seen from ``src_nodes``.

        ``offsets``/``rel``/``dd`` are per-entry arrays indexed by
        ``entries``; ``src_nodes`` and ``entries`` broadcast. The
        channel's source node ``src + offset`` comes from the translation
        table when it exists and from coordinate arithmetic otherwise —
        integer-exact either way. Mesh dimensions need no special case in
        the table: on a valid route ``c + o`` lies in ``[0, k)``, so
        ``(c + (o mod k)) mod k`` is ``c + o`` there.
        """
        topo = self.topology
        if self._plus is not None:
            nodes = self._plus[src_nodes * topo.num_nodes + rel[entries]]
        else:
            c = topo.coords_array[src_nodes] + offsets[entries]
            if self._all_wrap:
                c %= self._shape_row
            elif len(self._wrap_dims):
                c[..., self._wrap_dims] %= self._wrap_extents
            nodes = c @ topo.strides
        return nodes * (2 * topo.ndim) + dd[entries]

    def stencil_slots(self, st: Stencil, src_nodes) -> np.ndarray:
        """Channel-slot ids ``st`` touches for each source node, shape (m, E).

        Shared by the scalar :meth:`link_loads` path, the fluid
        simulator's usage matrix and the attribution engine; it and the
        vectorized path both go through :meth:`_slots`, so no two of
        them can disagree on which channels a flow crosses.
        """
        src_nodes = np.asarray(src_nodes, dtype=np.int64)
        offsets = np.asarray(st.offsets).reshape(-1, self.topology.ndim)
        rel, dd = self._rel_dd(offsets, st.dims, st.dirs)
        entries = np.arange(st.num_entries, dtype=np.int64)
        return self._slots(src_nodes[:, None], entries[None, :], offsets, rel, dd)

    def group_flows_by_offset(self, srcs, dsts):
        """Group flow indices by their routing offset.

        Returns ``(deltas, groups)`` where ``deltas`` is the (m, ndim)
        signed offset array and ``groups`` is a list of flow-index
        arrays — one per distinct offset, covering all flows. Grouping
        uses a mixed-radix key (offsets are bounded by the shape, so
        shifting into ``[0, 2k)`` per dim is collision-free).
        """
        deltas = self.topology.delta(srcs, dsts)
        keys = self._keys_for(deltas)
        order = np.argsort(keys, kind="stable")
        if len(order) == 0:
            return deltas, []
        sorted_keys = keys[order]
        bounds = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        return deltas, np.split(order, bounds)

    def _keys_for(self, deltas: np.ndarray) -> np.ndarray:
        """Collision-free mixed-radix key per offset row (sort == group)."""
        shape_arr = np.asarray(self.topology.shape, dtype=np.int64)
        keys = np.zeros(deltas.shape[0], dtype=np.int64)
        for d in range(self.topology.ndim):
            keys = keys * (2 * shape_arr[d] + 1) + (deltas[:, d] + shape_arr[d])
        return keys

    # All-pairs tables are built when ``V^2 * (ndim + 1)`` stays within
    # this many entries (512 nodes x 5 dims: 1.6M).
    _pair_table_budget = 16_000_000

    def _build_pair_tables(self) -> None:
        """Precompute, for every (src, dst) pair, the offset key and delta,
        and the translation table ``plus[src*V + rel]``: the node id of
        ``(coords[src] + coords[rel]) mod shape``."""
        topo = self.topology
        V = topo.num_nodes
        s = np.repeat(np.arange(V, dtype=np.int64), V)
        d = np.tile(np.arange(V, dtype=np.int64), V)
        deltas = topo.delta(s, d)
        self._pair_deltas = deltas
        self._pair_keys = self._keys_for(deltas)
        plus = np.zeros((V, V), dtype=np.int64)
        coords = topo.coords_array
        for dim in range(topo.ndim):
            c = coords[:, dim]
            plus += ((c[:, None] + c[None, :]) % topo.shape[dim]) * topo.strides[dim]
        self._plus = plus.ravel()

    # -- load computation -----------------------------------------------------------
    def link_loads(self, srcs, dsts, vols, out: np.ndarray | None = None) -> np.ndarray:
        """Dense per-channel-slot load vector for a set of flows.

        Parameters
        ----------
        srcs, dsts:
            Node ids (arrays of equal length). Flows with ``src == dst``
            stay on-node and contribute no network load.
        vols:
            Flow volumes (bytes or relative units).
        out:
            Optional preallocated/accumulating load vector of length
            ``topology.num_channel_slots``; loads are *added* into it.
        """
        topo = self.topology
        self._m_load_calls.inc()
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        vols = np.asarray(vols, dtype=np.float64)
        if not (srcs.shape == dsts.shape == vols.shape) or srcs.ndim != 1:
            raise RoutingError("srcs, dsts, vols must be equal-length 1-D arrays")
        if out is None:
            out = np.zeros(topo.num_channel_slots)
        elif out.shape != (topo.num_channel_slots,):
            raise RoutingError(
                f"out has shape {out.shape}, expected ({topo.num_channel_slots},)"
            )
        if len(srcs) == 0:
            return out

        offnode = srcs != dsts
        if not offnode.all():
            srcs, dsts, vols = srcs[offnode], dsts[offnode], vols[offnode]
            if len(srcs) == 0:
                return out

        if self.scalar_fallback:
            return self._link_loads_scalar(srcs, dsts, vols, out)

        for flows_exp, entries_exp in self._iter_expanded(srcs, dsts):
            slots = self._entry_slots(srcs[flows_exp], entries_exp)
            np.add.at(out, slots, vols[flows_exp] * self._tab_fracs[entries_exp])
        return out

    def _link_loads_scalar(self, srcs, dsts, vols, out) -> np.ndarray:
        """Scalar reference path: one scatter-add per distinct offset.

        The vectorized path is defined as bitwise-equal to this loop;
        property tests enforce the equivalence.
        """
        deltas, groups = self.group_flows_by_offset(srcs, dsts)
        for rows in groups:
            st = self.stencil(deltas[rows[0]])
            if st.num_entries == 0:
                continue
            slots = self.stencil_slots(st, srcs[rows])
            contrib = vols[rows][:, None] * st.fracs[None, :]
            np.add.at(out, slots.ravel(), contrib.ravel())
        return out

    def _expansion_parts(self, srcs: np.ndarray, dsts: np.ndarray):
        """Per-flow expansion metadata for a set of off-node flows.

        Returns ``(order, per_flow, entry_start)`` — sorted flow indices
        (ascending offset key, stable), the table-entry count per sorted
        flow, and each sorted flow's first table-entry index. The full
        (flow, entry) stream is the per-flow runs laid out in this order;
        callers may materialize it whole or in consecutive chunks — both
        produce the identical stream.
        """
        topo = self.topology
        V = topo.num_nodes
        if (
            self._pair_keys is None
            and V * V * (topo.ndim + 1) <= self._pair_table_budget
        ):
            self._build_pair_tables()
        if self._pair_keys is not None:
            pid = srcs * V + dsts
            keys = self._pair_keys[pid]
            deltas = None
        else:
            pid = None
            deltas = topo.delta(srcs, dsts)
            keys = self._keys_for(deltas)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sids = self._sids_for(sorted_keys)
        miss = np.flatnonzero(sids < 0)
        new = 0
        if len(miss):
            _, first = np.unique(sorted_keys[miss], return_index=True)
            for j in miss[first]:
                f = order[j]
                row = self._pair_deltas[pid[f]] if deltas is None else deltas[f]
                dkey = tuple(int(x) for x in row)
                self.stencil(dkey)  # counts the hit/miss, builds if new
                sid = self._stencil_ids[dkey]
                if self._sid_dense is not None:
                    self._sid_dense[sorted_keys[j]] = sid
                else:
                    self._sid_by_key[int(sorted_keys[j])] = sid
            sids = self._sids_for(sorted_keys)
            new = len(first)
        if len(sorted_keys):
            groups = np.count_nonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
            if groups > new:
                self._m_stencil_hits.inc(groups - new)
        self._refresh_table()
        indptr = self._tab_indptr
        entry_start = indptr[sids]
        return order, indptr[sids + 1] - entry_start, entry_start

    def _sids_for(self, keys: np.ndarray) -> np.ndarray:
        """Stencil-table id per offset key (-1 where not yet seen)."""
        if self._sid_dense is not None:
            return self._sid_dense[keys]
        uniq, inv = np.unique(keys, return_inverse=True)
        sids = [self._sid_by_key.get(int(k), -1) for k in uniq]
        return np.asarray(sids, dtype=np.int64)[inv]

    @staticmethod
    def _materialize_expansion(order, per_flow, entry_start):
        """Expand (flow, entry-count, entry-start) runs into flat pairs."""
        total = int(per_flow.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        flows_exp = np.repeat(order, per_flow)
        flow_start = np.cumsum(per_flow) - per_flow       # expansion offsets
        entries_exp = np.arange(total, dtype=np.int64) + np.repeat(
            entry_start - flow_start, per_flow
        )
        return flows_exp, entries_exp

    def _expand_entries(self, srcs: np.ndarray, dsts: np.ndarray):
        """Expand off-node flows into (flow_index, table_entry) pairs.

        The pair stream is ordered by (ascending offset key, flow position
        within the key group, stencil entry) — exactly the order the
        scalar path scatters in, which is what keeps the single
        ``np.add.at`` bitwise-faithful to the per-group loop.
        """
        order, per_flow, entry_start = self._expansion_parts(srcs, dsts)
        total = int(per_flow.sum())
        self._m_scatter_entries.inc(total)
        return self._materialize_expansion(order, per_flow, entry_start)

    # Expanded (flow, entry) pairs processed per scatter pass. Bounding the
    # pass keeps every temporary at a few MB so the allocator reuses warm
    # heap pages and the working set stays cache-resident — one giant pass
    # spends most of its time in soft page faults on multi-GB fresh
    # arrays. Sequential ``np.add.at`` over consecutive chunks of one
    # stream applies the identical addition sequence, so chunking never
    # changes a bit of the result.
    _expansion_chunk = 131_072

    def _iter_expanded(self, srcs: np.ndarray, dsts: np.ndarray):
        """Yield the (flow, entry) stream in bounded consecutive chunks."""
        order, per_flow, entry_start = self._expansion_parts(srcs, dsts)
        total = int(per_flow.sum())
        self._m_scatter_entries.inc(total)
        if total == 0:
            return
        if total <= self._expansion_chunk:
            yield self._materialize_expansion(order, per_flow, entry_start)
            return
        ends = np.cumsum(per_flow)
        n = len(order)
        i0 = 0
        while i0 < n:
            base = int(ends[i0] - per_flow[i0])
            i1 = int(np.searchsorted(ends, base + self._expansion_chunk,
                                     side="right"))
            i1 = min(max(i1, i0 + 1), n)  # an oversize flow runs alone
            yield self._materialize_expansion(
                order[i0:i1], per_flow[i0:i1], entry_start[i0:i1]
            )
            i0 = i1

    def _entry_slots(self, src_nodes: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """Channel-slot ids for (source node, table entry) pairs."""
        return self._slots(
            src_nodes, entries, self._tab_offsets, self._tab_rel, self._tab_dd
        )

    def link_loads_many(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        vols: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Accumulate loads for ``B`` candidate flow sets in one scatter.

        Parameters
        ----------
        srcs, dsts:
            (B, m) node-id matrices — row ``b`` is candidate ``b``'s
            endpoints for the same ``m`` logical flows.
        vols:
            (m,) shared flow volumes.
        out:
            (B, num_channel_slots) load matrix; loads are added in place,
            row ``b`` receiving exactly what
            ``link_loads(srcs[b], dsts[b], vols, out=out[b])`` would add
            (bitwise — candidates scatter into disjoint rows and each
            row's entry stream keeps the scalar order).
        """
        topo = self.topology
        self._m_batch_calls.inc()
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        vols = np.asarray(vols, dtype=np.float64)
        if srcs.ndim != 2 or srcs.shape != dsts.shape:
            raise RoutingError("srcs and dsts must be equal-shape (B, m) arrays")
        B, m = srcs.shape
        if vols.shape != (m,):
            raise RoutingError(f"vols must have shape ({m},), got {vols.shape}")
        S = topo.num_channel_slots
        if out.shape != (B, S):
            raise RoutingError(f"out has shape {out.shape}, expected ({B}, {S})")
        if m == 0 or B == 0:
            return out
        if self.scalar_fallback:
            for b in range(B):
                self.link_loads(srcs[b], dsts[b], vols, out=out[b])
            return out

        flat_s = srcs.ravel()
        flat_d = dsts.ravel()
        keep = np.flatnonzero(flat_s != flat_d)
        if len(keep) == 0:
            return out
        flat_out = out.reshape(-1)
        for pairs_exp, entries_exp in self._iter_expanded(
            flat_s[keep], flat_d[keep]
        ):
            flat_idx = keep[pairs_exp]
            slots = self._entry_slots(flat_s[flat_idx], entries_exp)
            rows = flat_idx // m
            contrib = vols[flat_idx % m] * self._tab_fracs[entries_exp]
            np.add.at(flat_out, rows * S + slots, contrib)
        return out

    def scatter_plan(self, srcs, dsts) -> ScatterPlan:
        """Precompute the load scatter for a fixed endpoint set.

        The returned :class:`ScatterPlan` replays
        ``link_loads(srcs, dsts, vols, out=...)`` bitwise for any
        ``vols`` of the same length (on-node flows contribute nothing
        and are dropped from the plan).
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.shape != dsts.shape or srcs.ndim != 1:
            raise RoutingError("srcs and dsts must be equal-length 1-D arrays")
        keep = np.flatnonzero(srcs != dsts)
        if len(keep) == 0:
            empty = np.empty(0, dtype=np.int64)
            return ScatterPlan(empty, np.empty(0), empty.copy())
        flows_exp, entries_exp = self._expand_entries(srcs[keep], dsts[keep])
        if len(flows_exp) == 0:
            empty = np.empty(0, dtype=np.int64)
            return ScatterPlan(empty, np.empty(0), empty.copy())
        slots = self._entry_slots(srcs[keep][flows_exp], entries_exp)
        return ScatterPlan(
            slots, self._tab_fracs[entries_exp], keep[flows_exp]
        )

    def pair_scatter(self, srcs, dsts, vols) -> PairPlan:
        """Precompute the load scatter of fixed flows, volumes multiplied in.

        ``plan.add_into(out)`` is bitwise-identical to
        ``link_loads(srcs, dsts, vols, out=out)`` and
        ``plan.add_into(out, sign=-1)`` to the same call with ``-vols``:
        the plan is the same (flow, entry) stream times the same volumes,
        and IEEE negation distributes exactly over the products.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        vols = np.asarray(vols, dtype=np.float64)
        if not (srcs.shape == dsts.shape == vols.shape) or srcs.ndim != 1:
            raise RoutingError("srcs, dsts, vols must be equal-length 1-D arrays")
        keep = np.flatnonzero(srcs != dsts)
        s = srcs[keep]
        flows_exp, entries_exp = self._expand_entries(s, dsts[keep])
        slots = self._entry_slots(s[flows_exp], entries_exp)
        return PairPlan(slots, vols[keep][flows_exp] * self._tab_fracs[entries_exp])

    # -- metrics ---------------------------------------------------------------------
    def max_channel_load(self, srcs, dsts, vols) -> float:
        """MCL: the load on the most-loaded channel."""
        loads = self.link_loads(srcs, dsts, vols)
        return float(loads.max()) if loads.size else 0.0

    def average_hops(self, srcs, dsts, vols) -> float:
        """Volume-weighted mean hop count under this router."""
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        vols = np.asarray(vols, dtype=np.float64)
        total_v = vols.sum()
        if total_v == 0:
            return 0.0
        deltas = self.topology.delta(srcs, dsts)
        hops = np.array(
            [self.stencil(d).mean_path_length for d in deltas]
        )
        return float((hops * vols).sum() / total_v)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.topology!r})"
