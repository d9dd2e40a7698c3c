"""serve-open: an open loop at a fixed rate against ``repro serve --jobs 2``.

One client (this process) submits on a fixed schedule whatever the
daemon does. About three of every four requests are cold, cheap jobs
(dimension order mapping of small synthetic graphs with unique seeds);
the rest resubmit a spec whose result a previous daemon left in the
store, so they take the store-read path at submit time. Two tenants.

Latency runs from when a request was *due* to the daemon's
``finished_unix`` on the same host clock, so a stalled generator or a
coarse poll interval cannot hide waiting. Latencies are raw: they are
bound by wake-ups and I/O, not by the core's speed, and the measured
daemon runs exactly as it would without the benchmark. Each set-up
daemon samples its core's speed until its ready file appears
(``serve_launcher.py --sample-ready``), and its set-up time is
corrected with it. The peak RSS is the largest over the daemons and the
children they waited for, as reported when the benchmark reaps them.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import cells
import checks
import harness
import refspeed

#: Requests per second: well below saturation on two cores.
RATE = 20.0
WARM_SHARE = 0.25
#: Seconds a daemon may take to write its ready file.
READY_TIMEOUT_S = 60.0
#: Seconds the requests may take to finish after the last one is sent.
RESULT_TIMEOUT_S = 60.0
LAUNCHER = harness.BENCH_DIR / "serve_launcher.py"


def start_daemon(cache: Path, flags: tuple = ()):
    """Launch ``serve_launcher.py [flags] serve ...`` and wait for its
    ready file; returns ``(process, url)``."""
    ready = cache / "serve.json"
    argv = [sys.executable, str(LAUNCHER), *flags, "serve", "--cache-dir",
            str(cache), "--jobs", "2", "--port", "0"]
    t0 = time.perf_counter()
    with open(cache.parent / f"{cache.name}.log", "ab") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=harness.clean_env(), cwd=str(harness.ROOT))
    while not ready.exists():
        if proc.poll() is not None or time.perf_counter() - t0 > READY_TIMEOUT_S:
            if proc.returncode is None:
                stop_daemon(proc)
            raise harness.BenchError("repro serve did not become ready")
        time.sleep(0.002)
    # The daemon writes the ready file atomically.
    return proc, json.loads(ready.read_text())["url"]


def stop_daemon(proc) -> tuple[int, float]:
    """Drain the daemon with SIGTERM; returns its exit status and the
    peak RSS, in MB, of it and the children it waited for."""
    if proc.returncode is None:
        proc.send_signal(signal.SIGTERM)
    return harness.reap(proc)


def run(workload: str, seed: int, seconds: float, trace: bool,
        result: harness.Result) -> None:
    from repro.serve import ServeClient
    from repro.service.engine import MappingEngine
    from repro.service.jobs import execute_mapping_job

    rng = random.Random(seed)
    n = max(int(seconds * RATE), 10 if harness.QUICK else 40)
    plan = []  # (kind, tenant, job)
    cold = warm = 0
    for _ in range(n):
        tenant = rng.choice(cells.TENANTS)
        if rng.random() < WARM_SHARE:
            plan.append(("warm", tenant, cells.serve_job(1_000_000 + warm, seed)))
            warm += 1
        else:
            plan.append(("cold", tenant, cells.serve_job(cold, seed)))
            cold += 1

    # Set-up: fresh daemons, each timed until its ready file appears.
    setup = harness.Timings()
    peaks = []
    with harness.pinned():
        for i in range(harness.setup_samples()):
            cache = harness.work_dir(f"setup{i}")
            speed_file = cache.parent / f"setup{i}.speed.json"
            t0 = time.perf_counter()
            proc, _ = start_daemon(cache, ("--sample-ready", str(speed_file)))
            raw = time.perf_counter() - t0
            peaks.append(stop_daemon(proc)[1])
            setup.add(raw, refspeed.correct(
                raw, [json.loads(speed_file.read_text())]))

    # A previous daemon's results: the warm specs are in the store.
    cache = harness.work_dir("serve-cache")
    t0 = time.perf_counter()
    warm_jobs = [job for kind, _, job in plan if kind == "warm"]
    for outcome in MappingEngine(cache_dir=cache, jobs=1).run(warm_jobs):
        if not outcome.ok:
            raise harness.BenchError(f"warm-up job failed: {outcome.error}")
    harness.info(f"prefilled {len(warm_jobs)} warm results in "
                 f"{time.perf_counter() - t0:.2f} s")

    trace_out = harness.WORK / "serve-spans.json" if trace else None
    proc, url = start_daemon(cache, ("--trace-out", str(trace_out)) if trace
                             else ())
    client = ServeClient(url, timeout=30.0, retries=0)
    sent = []  # (index, due_unix, late_s, rtt_s, code, doc)
    try:
        t0_perf, t0_unix = time.perf_counter() + 0.2, time.time() + 0.2
        for i, (kind, tenant, job) in enumerate(plan):
            due = t0_perf + i / RATE
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            t_send = time.perf_counter()
            code, doc = client.submit(job.payload(), tenant=tenant)
            rtt = time.perf_counter() - t_send
            sent.append((i, t0_unix + i / RATE, t_send - due, rtt, code, doc))
        final = wait_all(client, sent)
        served = {}
        for i, _, _, _, code, doc in sent:
            if code in (200, 202) and final.get(i, {}).get("state") == "done":
                rcode, payload = client.result(doc["id"])
                if rcode == 200:
                    served[i] = payload
    finally:
        rc, peak = stop_daemon(proc)
    peaks.append(peak)
    if rc != 0:
        result.fail(f"repro serve exited with status {rc}")

    # Checks and figures.
    latencies, late, rtts, waits, execs = [], [], [], [], []
    warm_hits = warm_total = 0
    ratios = []
    for (i, due_unix, late_s, rtt, code, doc), (kind, _, job) in zip(sent, plan):
        result.attempted += 1
        late.append(late_s)
        rtts.append(rtt)
        st = final.get(i, {})
        if code not in (200, 202) or st.get("state") != "done" \
                or st.get("degraded") or i not in served:
            result.failed += 1
            continue
        latencies.append(st["finished_unix"] - due_unix)
        err = checks.payload_error(served[i], execute_mapping_job(job))
        if err:
            result.fail(f"request {i}: {err}")
        if kind == "warm":
            warm_total += 1
            warm_hits += bool(st.get("from_cache"))
        else:
            waits.append(st["started_unix"] - st["submitted_unix"])
            execs.append(st["finished_unix"] - st["started_unix"])
            graph = job.workload.build_graph()
            best = min(cells.baseline_mcls(job.topology.build(), graph,
                                           ("ABCT", "TABC", "ACBT")).values())
            ratios.append(served[i]["report"]["mcl"] / best)
    if not latencies:
        result.fail("no request completed")
        return
    p50, p90, p99 = 1000 * np.quantile(latencies, [0.5, 0.9, 0.99])
    harness.info(f"{len(latencies)} of {len(sent)} requests done; latency "
                 f"p50 {p50:.3f} ms, p90 {p90:.3f} ms, p99 {p99:.3f} ms; "
                 f"generator late p99 {1000 * np.quantile(late, 0.99):.2f} ms")
    harness.info(f"setup: {setup.describe()}")
    harness.info("peak RSS per daemon (set-up daemons, then the measured "
                 "one): " + ", ".join(f"{p:.1f}" for p in peaks) + " MB")
    if not trace:
        result.end_to_end(setup.median(), p50 / 1000, harness.geomean(ratios),
                          max(peaks))
        return
    import layers
    from spantrace import summarize

    dump = json.loads(trace_out.read_text())
    spans = dump["spans"]
    s = summarize(spans)
    reqs = len(sent)

    per = {
        "serve.submit_rtt_ms": 1000 * float(np.median(rtts)),
        "serve.queue_wait_ms": 1000 * float(np.median(waits)) if waits else 0.0,
        "serve.exec_ms": 1000 * float(np.median(execs)) if execs else 0.0,
        "serve.warm_hit_ratio": warm_hits / warm_total if warm_total else 0.0,
        "serve.late_ms": 1000 * float(np.quantile(late, 0.9)),
        "serve.p90_ms": p90,
        "serve.admission.busy_s": layers.busy(s, "serve.admission", reqs),
        "serve.queueing.busy_s": layers.busy(s, "serve.queueing", reqs),
        "service.engine.busy_s": layers.busy(s, "service.engine", reqs),
        "service.executor.busy_s": layers.busy(s, "service.executor", reqs),
        "service.store.put_ms": layers.per_call_ms(s, "service.store.put"),
        "service.store.get_ms": layers.per_call_ms(s, "service.store.get"),
        "service.engine.batches": s.get("service.engine", {"calls": 0})["calls"],
        "import_s": dump["import_s"],
        "workloads.build_s": float(np.median(
            [_build_seconds(job) for _, _, job in plan[:20]])),
    }
    op_seconds = sum(sp[2] - sp[1] for sp in spans if sp[3] < 0)
    layers.finish(result, per, spans, op_seconds=op_seconds,
                  overhead_per_call=dump["overhead_per_call"])


def _build_seconds(job) -> float:
    t0 = time.perf_counter()
    job.workload.build_graph()
    return time.perf_counter() - t0


def wait_all(client, sent) -> dict:
    """Poll each accepted request until it is no longer queued or running."""
    final = {}
    open_ = {i: doc["id"] for i, _, _, _, code, doc in sent
             if code in (200, 202) and "id" in doc}
    t_end = time.perf_counter() + RESULT_TIMEOUT_S
    while open_ and time.perf_counter() < t_end:
        for i, key in list(open_.items()):
            code, doc = client.status(key)
            if code == 200 and doc.get("state") not in ("queued", "running"):
                final[i] = doc
                del open_[i]
        if open_:
            time.sleep(0.02)
    return final
