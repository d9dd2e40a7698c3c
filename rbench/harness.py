"""Shared plumbing: checkout discovery, clean child environments,
fresh-process set-up probes, statistics and the result line."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import refspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for caches, ready files and span dumps, one directory
#: per benchmark process; removed at exit.
WORK_ROOT = ROOT / ".rbench_work"
WORK = WORK_ROOT / str(os.getpid())


#: ``--quick``: one set-up sample and one operation per run, for the
#: benchmark's own tests. Never used for measurements.
QUICK = False
#: Fresh processes timed for ``setup_s`` in every run.
SETUP_SAMPLES = 5
#: Operations every run measures, however long they take.
MIN_OPS = 3
#: Seconds a child may take to exit once asked to.
REAP_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing checkout, bad import...)."""


def clean_env() -> dict:
    """The environment for every child: no ``REPRO_*`` knobs, and
    ``repro`` importable only from this checkout's ``src/``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


def import_repro_from_checkout():
    """Import ``repro`` from ``<checkout>/src``; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a checkout")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
    import repro

    check_repro_origin(repro.__file__)
    return repro


def check_repro_origin(path: str) -> None:
    if Path(path).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"repro imported from {path}, not from {SRC}")


@contextmanager
def pinned():
    """Run this process, and every child it starts meanwhile, on one core.

    The two cores of the box change speed independently, by up to 1.5x
    within a second. Pinned, the timed work and the thread that samples
    its speed share one core, so the correction tracks the core that did
    the work.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@contextmanager
def sampled_processes(speed_dir: Path):
    """Sample this process's speed, and make every Python process the
    program starts meanwhile sample its own into ``speed_dir`` (see
    ``site/sitecustomize.py``). Yields this process's ``Sampler``."""
    saved = {k: os.environ.get(k) for k in ("PYTHONPATH", "RBENCH_SPEED_DIR")}
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR / "site")])
    os.environ["RBENCH_SPEED_DIR"] = str(speed_dir)
    try:
        with refspeed.Sampler() as sampler:
            yield sampler
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def speed_reports(sampler, speed_dir: Path) -> list[dict]:
    """This process's samples and those every program process wrote to
    ``speed_dir`` at exit; a worker that wrote none (killed) does not
    count."""
    return [sampler.report()] + [json.loads(p.read_text())
                                 for p in speed_dir.glob("*.json")]


def work_dir(tag: str) -> Path:
    path = WORK / tag
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


# -- timings -------------------------------------------------------------------------
class Timings:
    """Raw and speed-corrected seconds of one kind of operation in a run."""

    def __init__(self):
        self.raw: list[float] = []
        self.corrected: list[float] = []

    def add(self, raw_s: float, corrected_s: float) -> None:
        self.raw.append(raw_s)
        self.corrected.append(corrected_s)

    def __len__(self) -> int:
        return len(self.raw)

    def median(self) -> float:
        """Speed-corrected median, in seconds."""
        return float(np.median(self.corrected))

    def describe(self) -> str:
        return (f"{len(self)} samples, p50 raw {np.median(self.raw):.4f} s, "
                f"corrected {self.median():.4f} s; per sample "
                "(raw/corrected s): " + ", ".join(
                    f"{r:.4f}/{c:.4f}" for r, c in zip(self.raw, self.corrected)))


# -- set-up time ---------------------------------------------------------------------
def probe_setup(workload: str) -> tuple[Timings, dict]:
    """Start fresh ``probe.py`` processes and time each one from
    ``Popen`` to its ready line.

    The probe samples its own core's speed while it works (see
    ``refspeed.Sampler``); the wall time is corrected with that speed.
    Returns the timings and the probes' own ``import_s``/``build_s``.
    """
    timings = Timings()
    reports = {"import_s": [], "build_s": []}
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), workload]
    for _ in range(setup_samples()):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                env=clean_env(), cwd=str(ROOT), text=True)
        line = proc.stdout.readline()
        raw = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or not line.startswith("{"):
            raise BenchError(f"set-up probe failed: {workload}")
        doc = json.loads(line)
        check_repro_origin(doc["repro"])
        timings.add(raw, refspeed.correct(raw, [doc]))
        reports["import_s"].append(doc["import_s"])
        reports["build_s"].append(doc["build_s"])
    return timings, reports


def setup_samples() -> int:
    return 1 if QUICK else SETUP_SAMPLES


def geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


# -- peak memory ---------------------------------------------------------------------
def reset_peak_rss() -> None:
    """Start this process's peak RSS afresh from its current RSS, so
    that the peak read next covers only the work done in between."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(pid="self") -> float:
    """Peak RSS (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def reap(proc) -> tuple[int, float]:
    """Wait for a child the benchmark started and return its exit status
    and the peak RSS, in MB, of it and every child it waited for."""
    t_end = time.perf_counter() + REAP_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > t_end:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def info(msg: str) -> None:
    """An info line: printed, never parsed as a metric."""
    print(f"# {msg}", flush=True)


class Deadline:
    """Run-length control: start another operation only while it is
    predicted to end inside the budget, but always at least ``MIN_OPS``."""

    def __init__(self, seconds: float):
        self.t0 = time.perf_counter()
        self.seconds = seconds
        self.minimum = 1 if QUICK else MIN_OPS
        self.count = 0
        self.last = 0.0

    def more(self) -> bool:
        if self.count < self.minimum:
            return True
        return time.perf_counter() - self.t0 + self.last <= self.seconds

    def done(self, op_seconds: float) -> None:
        self.count += 1
        self.last = op_seconds


class Result:
    """Accumulates metrics and the attempted/failed/correct counters."""

    def __init__(self, declared: dict[str, str]):
        self.declared = declared  # name -> unit
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def put(self, name: str, value: float) -> None:
        if name not in self.declared:
            raise KeyError(f"metric {name!r} is not declared")
        value = float(value)
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value}")
        self.metrics[name] = {"value": value, "unit": self.declared[name]}

    def end_to_end(self, setup_s: float, p50_s: float, mcl_ratio: float,
                   peak_rss_mb: float) -> None:
        """Put the end-to-end metrics (times given in seconds)."""
        self.put("setup_s", setup_s)
        self.put("p50_ms", 1000 * p50_s)
        self.put("mcl_ratio", mcl_ratio)
        self.put("ok_ratio", (self.attempted - self.failed) / self.attempted)
        self.put("peak_rss_mb", peak_rss_mb)

    def fail(self, message: str) -> None:
        """A wrong answer: the run is reported as incorrect."""
        self.errors.append(message)

    def line(self) -> dict:
        missing = sorted(set(self.declared) - set(self.metrics))
        if missing:
            self.fail(f"metrics not measured: {missing}")
        for err in self.errors:
            print(f"# CHECK FAILED: {err}", file=sys.stderr, flush=True)
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}
