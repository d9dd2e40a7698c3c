"""One fresh-process set-up sample.

Run as ``python3 probe.py <workload>`` with ``PYTHONPATH`` pointing at
the checkout's ``src/``. Imports ``repro``, builds what the workload
needs before its first operation, prints one JSON line and exits: its
``import_s`` and ``build_s``, the core speed it sampled meanwhile and
the time the sampling took (see ``refspeed.Sampler``), and where
``repro`` came from. The parent times it from ``Popen`` to that line.
"""

import json
import sys
import time


def main(workload: str) -> int:
    import refspeed

    with refspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        import repro
        import cells

        t1 = time.perf_counter()
        cells.build_for_setup(workload)
        t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1,
                      "repro": repro.__file__, **sampler.report()}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
