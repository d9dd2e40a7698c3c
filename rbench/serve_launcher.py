"""Start ``repro serve`` through the CLI, optionally with span wrappers.

    python3 serve_launcher.py [--trace-out FILE | --sample-ready FILE] \
        serve --cache-dir DIR ...

With ``--trace-out`` the daemon's public admission, queueing, engine,
executor and store entry points are wrapped before the CLI runs, and
when the daemon exits (SIGTERM drains it) the spans, the measured
per-call wrapper cost and the import time are written to FILE as JSON.

With ``--sample-ready`` the core's speed is sampled (``refspeed.Sampler``)
from the start until ``DIR/serve.json`` appears, and the samples are
written to FILE when the daemon exits.
"""

import json
import os
import sys
import time


def write_json(path: str, doc: dict) -> None:
    with open(path + ".tmp", "w") as fh:
        json.dump(doc, fh)
    os.replace(path + ".tmp", path)


def main(argv: list[str]) -> int:
    mode = path = None
    if argv[:1] in (["--trace-out"], ["--sample-ready"]):
        mode, path, argv = argv[0], argv[1], argv[2:]
    if mode == "--sample-ready":
        import refspeed

        ready = os.path.join(argv[argv.index("--cache-dir") + 1], "serve.json")
        sampler = refspeed.Sampler(until=lambda: os.path.exists(ready)).start()
        try:
            import repro.cli

            return repro.cli.main(argv)
        finally:
            sampler.stop()
            write_json(path, sampler.report())
    t0 = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t0
    if mode is None:
        return repro.cli.main(argv)

    import layers
    from spantrace import SpanRecorder, wrapper_overhead_s

    recorder = SpanRecorder()
    layers.wrap_all(recorder, layers.serve_table())
    try:
        rc = repro.cli.main(argv)
    finally:
        recorder.close()
        write_json(path, {"spans": recorder.spans, "import_s": import_s,
                          "overhead_per_call": wrapper_overhead_s(),
                          "repro": repro.__file__})
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
