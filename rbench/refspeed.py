"""Machine-speed sampling for speed-corrected timings.

On the shared 2-core box this benchmark was tuned on, each core's speed
flips between two states about 1.5x apart, several times a second and
independently of the other core, and drifts by up to 1.7x over minutes.
A raw CPU-bound timing mixes the program's cost with the machine's
mood. A reference run only before and after an operation misses the
flips in between, so ``Sampler`` samples *inside* the operation, on the
core doing the work: a thread runs a tiny fixed kernel every period and
times it in its own CPU time. The operation's time, less the share of
it spent sampling, is scaled by the mean speed seen relative to the
kernel's nominal time:

    corrected = raw * (1 - sampling share) * mean(nominal / sample)

so a corrected time is still in seconds. Two kernels, chosen per
workload by the kind of work they stand in for:

- ``MINI``: dict updates, ``np.add.at``, ``np.sort`` -- the mix of
  interpreter and numpy work the mapper's routing, merge and refine do.
- ``MILP``: one small fixed MILP through ``scipy.optimize.milp``, about
  90% of it inside the compiled HiGHS solver, as in map-milp. In the
  box's slow phase compiled solver code slows less than the
  interpreter, so the ``MINI`` kernel over-corrects a solver-bound
  timing.

The kernels import nothing from ``repro`` and their inputs never depend
on the workload seed: they measure the machine, never the workload.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], float]
    #: The kernel's time at nominal speed, in seconds.
    nominal_s: float
    #: Seconds between samples: a few per cent of one core at most.
    period_s: float


_INPUTS: dict[str, tuple] = {}


def _mini_input():
    if "mini" not in _INPUTS:
        rng = np.random.default_rng(20140918)
        arr = rng.random(1024)
        # About 30 KB in all: small enough to stay in the core's own
        # caches, so a sample sees the core's speed, not the cache
        # state the timed operation left behind.
        _INPUTS["mini"] = ([int(k) for k in rng.integers(0, 64, size=3000)],
                           rng.integers(0, 256, size=2000), rng.random(2000),
                           arr, np.zeros(256), np.empty_like(arr))
    return _INPUTS["mini"]


def mini_kernel() -> float:
    """About 0.3 ms of fixed interpreter and numpy work; returns a checksum."""
    keys, idx, vals, arr, out, buf = _mini_input()
    counts: dict[int, int] = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    out.fill(0.0)
    np.add.at(out, idx, vals)
    buf[:] = arr
    buf.sort()
    return float(out[0]) + float(buf[0]) + len(counts)


def _milp_input():
    """Six tasks onto three slots of two, minimizing the largest slot
    load: the shape of RAHTM's cluster MILP, small enough for ~8 ms."""
    if "milp" not in _INPUTS:
        import scipy.optimize as spo
        import scipy.sparse as sp

        rng = np.random.default_rng(20140918)
        tasks, slots = 6, 3
        load = rng.integers(1, 30, size=(tasks, slots))
        assign = np.kron(np.eye(tasks), np.ones(slots))   # one slot each
        fill = np.tile(np.eye(slots), tasks)              # two per slot
        matrix = np.block([[assign, np.zeros((tasks, 1))],
                           [fill, np.zeros((slots, 1))],
                           [fill * load.ravel(), -np.ones((slots, 1))]])
        lo = [1] * tasks + [2] * slots + [-np.inf] * slots
        hi = [1] * tasks + [2] * slots + [0] * slots      # z >= slot load
        nvar = tasks * slots + 1
        cost = np.zeros(nvar)
        cost[-1] = 1.0
        integrality = np.ones(nvar)
        integrality[-1] = 0
        _INPUTS["milp"] = (spo.milp, cost, {
            "constraints": spo.LinearConstraint(sp.csr_array(matrix), lo, hi),
            "integrality": integrality,
            "bounds": spo.Bounds(np.zeros(nvar),
                                 np.r_[np.ones(nvar - 1), np.inf])})
    return _INPUTS["milp"]


def milp_kernel() -> float:
    """About 8 ms of fixed MILP solving, mostly inside HiGHS; returns
    the optimum."""
    milp, cost, kwargs = _milp_input()
    return float(milp(cost, **kwargs).fun)


MINI = Kernel(mini_kernel, nominal_s=0.00030, period_s=0.010)
MILP = Kernel(milp_kernel, nominal_s=0.0080, period_s=0.125)


def correct(raw_s: float, reports) -> float:
    """Correct ``raw_s`` with the ``Sampler.report()`` of every process
    that did the work, pooled: each process counts by its samples, and
    the share of the processes' time spent sampling is taken off."""
    wall = sum(r["wall_s"] for r in reports)
    sampling = sum(r["sampling_s"] for r in reports)
    speed = (sum(r["inverse_sum"] for r in reports)
             / sum(r["count"] for r in reports))
    return raw_s * max(1.0 - sampling / wall, 0.0) * speed


class Sampler:
    """Sample this process's core speed while work runs.

    Usage::

        with Sampler() as s:
            do_work()
        correct(raw_s, [s.report()])

    A thread wakes every ``kernel.period_s`` and times one kernel pass
    in its own CPU time (``time.thread_time``), so a sample measures how
    fast the core ran the kernel, not how long the thread waited for the
    core or the interpreter lock. A thread, not a signal handler,
    because Python runs handlers only between bytecodes and the MILP
    solver runs for seconds inside one C call (it releases the
    interpreter lock, so the thread keeps sampling). When the work is
    shorter than one period, one sample is taken right after it.
    ``until``, if given, is checked after each sample and ends the
    sampling once it returns true.
    """

    def __init__(self, kernel: Kernel = MINI, until=None):
        self.kernel = kernel
        self.until = until
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self.wall_s = 0.0
        self._stop = threading.Event()
        self._thread = None
        kernel.run()  # build the input and warm up outside the timing

    def _sample(self) -> None:
        t0 = time.thread_time()
        self.kernel.run()
        self.samples.append(time.thread_time() - t0)

    def _loop(self) -> None:
        while not self._stop.wait(self.kernel.period_s):
            self._sample()
            if self.until is not None and self.until():
                break
        self.sampling_s = time.thread_time()
        self.wall_s = time.perf_counter() - self._t0

    def start(self) -> "Sampler":
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="rbench-speed-sampler")
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        if not self.samples:
            self._sample()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    def report(self) -> dict:
        """The samples in a form ``correct`` can pool across processes:
        ``sampling_s`` is the CPU time the sampling thread used over the
        ``wall_s`` it ran for."""
        nominal = self.kernel.nominal_s
        return {"inverse_sum": sum(nominal / x for x in self.samples),
                "count": len(self.samples), "sampling_s": self.sampling_s,
                "wall_s": max(self.wall_s, self.sampling_s)}
