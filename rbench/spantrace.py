"""In-memory spans recorded by wrapping public functions of ``repro``.

The benchmark never edits the program: it replaces an attribute where
the caller looks it up (a module-level name such as
``repro.core.rahtm.merge_blocks``, or a method on its class such as
``Router.link_loads``) with a wrapper that records a span, and puts the
original back afterwards. A span is ``[name, start, end, parent]``;
``parent`` is the index of the enclosing span on the same thread, or -1.
Spans stay in a list and are summarized when the run ends.

A layer's *self time* is a span's duration minus the part of it that
its child spans cover, so summing self times over all spans gives
exactly the time the outermost spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

_MISSING = object()


class SpanRecorder:
    """Collects spans from wrapped callables; restores them on ``close``."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        self.spans.append(rec)
        stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _wrapper(self, fn, name: str, tap=None):
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                ret = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if tap is not None:
                tap(args, ret)
            return ret

        return wrapper

    # -- patching -----------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, tap=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``tap(args, return_value)``, when given, sees every call that
        returns; it is how the benchmark reads what a layer hands back.
        """
        own = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr)
        target = getattr(owner, attr) if own is _MISSING else own
        if isinstance(target, staticmethod):
            new = staticmethod(self._wrapper(target.__func__, name, tap))
        elif isinstance(target, classmethod):
            new = classmethod(self._wrapper(target.__func__, name, tap))
        else:
            new = self._wrapper(target, name, tap)
        self._patched.append((owner, attr, own))
        setattr(owner, attr, new)

    def close(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, own = self._patched.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False



def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out.append((end - start) - covered)
    return out


def covered_by_roots(spans: list[list]) -> float:
    """Total duration of the outermost spans."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def summarize(spans: list[list]) -> dict[str, dict]:
    """``{name: {"calls", "self_s", "total_s", "durations"}}`` over spans."""
    out: dict[str, dict] = {}
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        doc = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                    "total_s": 0.0, "durations": []})
        doc["calls"] += 1
        doc["self_s"] += self_s
        doc["total_s"] += end - start
        doc["durations"].append(end - start)
    return out


#: Calls per timing loop of ``wrapper_overhead_s``.
OVERHEAD_CALLS = 20000


def wrapper_overhead_s() -> float:
    """Seconds one wrapped call costs over a bare call, measured here."""

    class _Probe:
        def noop(self):
            return None

    probe = _Probe()
    bare = _best_loop(probe.noop)
    rec = SpanRecorder()
    with rec:
        rec.wrap(_Probe, "noop", "probe")
        wrapped = _best_loop(probe.noop)
    return max(wrapped - bare, 0.0) / OVERHEAD_CALLS


def _best_loop(fn) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best
