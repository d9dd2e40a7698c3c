"""Output checks. Each returns an error message, or None when the
output is right; the workloads turn messages into a failed run."""

from __future__ import annotations

import numpy as np

#: Relative tolerance between the MCL a mapper reports and an
#: independent evaluation. The two sum the same loads in different
#: orders and differ in the last few ulps (about 2e-14 on map-stitch);
#: a wrong mapping or a stale score is off by far more.
MCL_RTOL = 1e-9


def placement_error(task_to_node, num_tasks: int, num_nodes: int,
                    per_node: int) -> str | None:
    """Every task on a real node, every node holding exactly ``per_node``."""
    t2n = np.asarray(task_to_node)
    if t2n.shape != (num_tasks,):
        return f"mapping places {t2n.size} tasks, expected {num_tasks}"
    if t2n.size and (t2n.min() < 0 or t2n.max() >= num_nodes):
        return "mapping names a node outside the topology"
    counts = np.bincount(t2n, minlength=num_nodes)
    if (counts != per_node).any():
        node = int(np.flatnonzero(counts != per_node)[0])
        return (f"node {node} holds {int(counts[node])} tasks, "
                f"expected {per_node}")
    return None


def mcl_error(reported: float, evaluated: float) -> str | None:
    """The mapper's own MCL must match an independent evaluation."""
    if not np.isfinite(reported) or not np.isfinite(evaluated):
        return f"non-finite MCL: reported {reported}, evaluated {evaluated}"
    if abs(reported - evaluated) > MCL_RTOL * max(abs(evaluated), 1.0):
        return f"mapper reports MCL {reported!r}, evaluation gives {evaluated!r}"
    return None


def payload_error(got: dict, want: dict) -> str | None:
    """A served or fleet result must equal the in-process result bit for
    bit: the same placement and the same MCL float."""
    if got.get("mapping") != want.get("mapping"):
        return "mapping differs from the in-process map of the same spec"
    got_mcl = (got.get("report") or {}).get("mcl")
    want_mcl = (want.get("report") or {}).get("mcl")
    if got_mcl != want_mcl:
        return f"MCL {got_mcl!r} differs from in-process {want_mcl!r}"
    return None
