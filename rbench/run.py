"""The repository benchmark: one command per workload.

    python3 rbench/run.py --workload map-stitch --seed 1 --seconds 20 --trace 0

Prints info lines (starting with ``#``) and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.
Exits non-zero, without a result line, when it cannot run (no checkout
``src/``, ``repro`` imported from elsewhere, a crashed workload) and
with status 1 after the result line when a check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

WORKLOADS = ("map-stitch", "map-milp", "serve-open", "fleet-batch")


def declared_metrics(trace: bool) -> dict[str, str]:
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up sample and one operation (tests)")
    args = parser.parse_args(argv)
    harness.QUICK = args.quick

    try:
        harness.import_repro_from_checkout()
        result = harness.Result(declared_metrics(bool(args.trace)))
        if args.workload in ("map-stitch", "map-milp"):
            import cell_map as cell
        elif args.workload == "serve-open":
            import cell_serve as cell
        else:
            import cell_fleet as cell
        cell.run(args.workload, args.seed, args.seconds, bool(args.trace),
                 result)
        line = result.line()
    except harness.BenchError as exc:
        print(f"rbench: {exc}", file=sys.stderr)
        return 2
    finally:
        harness.remove_work()
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
