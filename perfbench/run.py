"""Benchmark one igaspectra workload; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the result holds the end-to-end metrics of untraced
CLI runs; with ``--trace 1`` the per-layer metrics of traced runs (see
``harness.PER_LAYER``).  The full record, environment included, is
written to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
Exits 2 without a result when the checkout has no igaspectra sources.
"""

import argparse
import json
import sys

import harness

harness.pin_blas_threads()

RUN_SECONDS = json.loads((harness.ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        harness.check_installation()
    except SystemExit as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    record = harness.measure(WORKLOADS[args.workload], args.seed, args.seconds, trace,
                             probes=3 if trace else 5, min_repeats=2 if trace else 3)
    path = harness.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    harness.write_result(record, harness.environment(), path)
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(harness.summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
