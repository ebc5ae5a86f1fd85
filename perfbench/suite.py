"""Run every workload over several seeds and print every metric by name and unit.

    python3 perfbench/suite.py [--runs 10] [--first-seed 1] [--seconds S] [--out FILE]

Each run is a separate ``run.py`` process; each seed shuffles the order
of the workloads of ``BENCHMARK.json``.  Untraced runs give the
end-to-end table, with the spread of each metric across runs (quartile
distance over the median) next to its bound; one traced run per
workload, after them, gives the per-layer table and the time
accounting.  All runs, with the environment, go to FILE (default
``perfbench/out/suite.json``), which ``compare.py`` reads.
"""

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

from compare import BENCHMARK, not_applicable, quartiles, samples, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} failed:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def print_end_to_end(runs, spec) -> None:
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}
    table = samples(runs, 0)
    print(f"{'workload':16} {'metric':18} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'runs':>4} {'spread':>8} {'bound':>6}")
    for workload in sorted(table):
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        for name, (unit, bound) in bounds.items():
            points = table[workload][name]
            q1, med, q3 = quartiles(points)
            wide = spread(points) or 0.0  # None only for one run of a deterministic metric
            flag = "" if wide < bound / 3 else "  (above a third of the bound)"
            print(f"{workload:16} {name:18} {unit:7} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {len(points):4d} {100 * wide:7.2f}% "
                  f"{100 * bound:5.1f}%{flag}")
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        print(f"{workload:16} {'failed_ratio':18} {'ratio':7} {failed / attempted:12.6g} "
              f"{'':12} {'':12} {len(mine):4d}   ({failed} of {attempted} commands)")


def print_layers(runs, spec) -> None:
    for run in runs:
        if run["trace"] != 1:
            continue
        layers = run["layers"]
        na = not_applicable([run])[run["workload"]]
        print(f"\n{run['workload']} (seed {run['seed']}, traced repeats "
              f"{layers['trace.wall_s']['n']}):")
        for m in spec["per_layer"]:
            value = "n/a" if m["name"] in na else f"{layers[m['name']]['value']:.6g}"
            print(f"  {m['name']:30} {value:>14} {m['unit']}")
        setup = run["metrics"]["setup_s"]["value"]
        print(f"  spanned {layers['trace.spanned_s']['value']:.3f} s of traced wall "
              f"{layers['trace.wall_s']['value']:.3f} s minus setup {setup:.3f} s")


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(HERE / "out" / "suite.json"))
    args = parser.parse_args()

    env, runs = None, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        order = list(names)
        random.Random(seed).shuffle(order)
        for workload in order:
            result = run_once(workload, seed, args.seconds, 0)
            env = env or result["env"]
            runs += result["runs"]
            print(f"seed {seed} {workload}: wall_s "
                  f"{result['runs'][0]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
    for workload in names:
        result = run_once(workload, args.first_seed, args.seconds, 1)
        env = env or result["env"]
        runs += result["runs"]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"schema": 1, "env": env, "runs": runs}, indent=1) + "\n")
    if args.runs:
        print_end_to_end(runs, spec)
    print_layers(runs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
