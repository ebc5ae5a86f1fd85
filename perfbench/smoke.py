"""Smoke test of the benchmark: same harness, checks and tracer, tiny meshes.

    python3 perfbench/smoke.py

Runs each of the four CLI commands once untraced and once traced at a
size that takes well under a second, then checks that:

* the outputs pass the workload checks and every repeat succeeds;
* every end-to-end and per-layer metric named in BENCHMARK.json is
  reported with its unit, and nothing else is;
* the spans account for the traced run, and every span name maps to a
  layer;
* the output checks reject a corrupted payload;
* ``compare.py`` judges a run against itself as unchanged, or n/a
  where a workload never enters a layer.

Exits 1 on the first failure.  It lives outside ``tests/`` so the
project's test suite does not collect it.
"""

import json
import sys

import harness

harness.pin_blas_threads()


def _tiny():
    from workloads import _workload

    return [
        _workload("convergence-tiny", "convergence --dim 1 --degree 3 --elements 8,16,32 "
                  "--modes 1,6", "smoke", error_ceiling=100.0),
        _workload("spectrum-1d-tiny", "spectrum --dim 1 --degree 3 --elements 20", "smoke"),
        _workload("condition-tiny", "condition --dim 3 --degree 3 --elements 8", "smoke"),
        _workload("spectrum-3d-tiny", "spectrum --dim 3 --degree 2 --elements 6", "smoke"),
    ]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"smoke: FAILED: {message}", file=sys.stderr)
        raise SystemExit(1)


def _check_record(w, record, spec) -> None:
    _expect(record["correct"] and record["failed"] == 0,
            f"{w.name}: {record['failures']}")
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        line = harness.summary_line(record | {"trace": trace})
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        _expect(got == want, f"{w.name}: {group} metrics {got} differ from BENCHMARK.json")
    layers = record["layers"]
    _expect(layers["cli.output_bytes"]["value"] > 0, f"{w.name}: render not traced")
    _expect(layers["eigsolve.dof"]["value"] > 0, f"{w.name}: eigensolve not traced")
    # the self times are disjoint and lie under the root span; only the
    # self times of cli.main and condition_report are not reported
    spanned = layers["trace.spanned_s"]["value"]
    self_s = sum(layers[m]["value"] for m in harness._SELF_TIMES)
    _expect(0.0 < self_s <= spanned * (1 + 1e-9), f"{w.name}: self times add up to {self_s}")
    _expect(spanned <= layers["trace.wall_s"]["value"],
            f"{w.name}: spanned time outside the traced wall time")
    for name in record["not_applicable"]:
        _expect(layers[name]["value"] == 0, f"{w.name}: {name} is n/a but not 0")
    # only a 1D command forms no tensor sum
    _expect(("tensor.sum_s" in record["not_applicable"]) == (w.dim == 1),
            f"{w.name}: tensor layer marked n/a wrongly")


def _check_rejects_corruption(w) -> None:
    from workloads import CheckError, check_output

    child = harness._cli(w, "smoke-corrupt")
    payload = child.out_path.read_text()
    child.out_path.unlink()
    lines = payload.splitlines()
    cells = lines[2].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))  # perturb one value
    lines[2] = ",".join(cells)
    try:
        check_output(w, "\n".join(lines) + "\n")
    except CheckError:
        return
    _expect(False, f"{w.name}: a corrupted payload passed the checks")


def main() -> int:
    from compare import compare, metric_specs
    from workloads import WORKLOADS

    harness.check_installation()
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    _expect(set(metric_specs()) == set(harness.END_TO_END) | set(harness.PER_LAYER),
            "BENCHMARK.json metrics differ from the harness tables")
    _expect({w["name"]: w["why"] for w in spec["workloads"]}
            == {w.name: w.why for w in WORKLOADS.values()},
            "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    runs = []
    for w in _tiny():
        record = harness.measure(w, seed=1, seconds=0, trace=True, probes=1, min_repeats=1)
        _check_record(w, record, spec)
        runs.append(record)
        print(f"smoke: {w.name}: ok, accuracy_digits "
              f"{record['metrics']['accuracy_digits']['value']:.2f}")
    _check_rejects_corruption(_tiny()[1])
    both = runs + [r | {"trace": 0} for r in runs]
    verdicts = {row[-1] for row in compare(both, both)}
    _expect(verdicts == {"unchanged", "n/a"}, f"self-comparison gave {verdicts}")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
