"""Compare two benchmark result files, one row per (workload, metric).

    python3 perfbench/compare.py OLD.json NEW.json

A result file is what ``run.py`` writes under ``perfbench/out/`` or what
``suite.py`` collects; each holds a list of runs.  Untraced runs give the
end-to-end rows, judged against the bounds and directions in
``BENCHMARK.json``.  Traced runs give the per-layer rows, which have no
bound: they are judged against their own spread.

Verdicts, with change measured between medians toward "worse":

* ``unresolved``: the run-to-run spread (quartile distance over the
  median, the wider of the two sides) exceeds the bound, and not every
  new run beats every old run;
* ``worse`` / ``better``: the change exceeds the bound (and the spread);
* ``unchanged``: otherwise.

A per-layer row is ``unchanged`` when the values are equal, ``worse`` or
``better`` when the change exceeds the spread, ``unresolved`` otherwise
(also when neither side has a spread: one run of a derived number),
and ``n/a`` when the workload never enters the metric's layer on either
side (the result line reads 0 there).
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path) -> list:
    return json.loads(Path(path).read_text())["runs"]


def metric_specs() -> dict:
    """name -> (unit, better, bound) from BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text())
    out = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["unit"], m["better"], 0.0) for m in spec["per_layer"]})
    return out


def samples(runs, trace: int) -> dict:
    """workload -> metric -> list of (median, q1, q3), one per run."""
    out = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        table = run["layers"] if trace else run["metrics"]
        per = out.setdefault(run["workload"], {})
        for name, m in table.items():
            per.setdefault(name, []).append((m["value"], m.get("q1"), m.get("q3")))
    return out


def not_applicable(runs) -> dict:
    """workload -> per-layer metrics not applicable in every traced run."""
    out = {}
    for run in runs:
        if run["trace"] == 1:
            na = set(run.get("not_applicable", ()))
            out[run["workload"]] = out.get(run["workload"], na) & na
    return out


def quartiles(points) -> tuple:
    """(q1, median, q3): across runs, or within one run; None if unknown."""
    values = [p[0] for p in points]
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return q1, med, q3
    return points[0][1], med, points[0][2]


def spread(points):
    """Quartile distance over the median: across runs, or within one run.

    None when a single run recorded no quartiles for the metric.
    """
    q1, med, q3 = quartiles(points)
    if q1 is None:
        return None
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(old, new, better: str, bound: float) -> tuple:
    """(verdict, relative change toward worse, spread or None)."""
    mo = statistics.median(p[0] for p in old)
    mn = statistics.median(p[0] for p in new)
    sign = 1.0 if better == "lower" else -1.0
    if mo:
        change = sign * (mn - mo) / abs(mo)
    else:
        change = 0.0 if mn == mo else sign * (1.0 if mn > mo else -1.0)
    known = [w for w in (spread(old), spread(new)) if w is not None]
    wide = max(known, default=None)
    olds = [p[0] for p in old]
    news = [p[0] for p in new]
    separated = (max(news) < min(olds)) if better == "lower" else (min(news) > max(olds))
    if not bound:  # per-layer numbers: judged against their own spread
        if change == 0:
            return "unchanged", change, wide
        if wide is None or abs(change) <= wide:
            return "unresolved", change, wide
        return ("worse" if change > 0 else "better"), change, wide
    if wide is not None and wide > bound:
        return ("better" if separated else "unresolved"), change, wide
    if change > bound:
        return "worse", change, wide
    if change < -bound:
        return "better", change, wide
    return "unchanged", change, wide


def compare(old_runs, new_runs) -> list:
    """Rows (workload, metric, unit, old, new, change, spread, bound, verdict)."""
    specs = metric_specs()
    na_old, na_new = not_applicable(old_runs), not_applicable(new_runs)
    rows = []
    for trace in (0, 1):
        old, new = samples(old_runs, trace), samples(new_runs, trace)
        for workload in sorted(set(old) & set(new)):
            na = na_old.get(workload, set()) & na_new.get(workload, set())
            for name in sorted(set(old[workload]) & set(new[workload])):
                # untraced rows are the end-to-end metrics; traced rows are
                # every per-layer number in the result files
                unit, better, bound = specs.get(name, ("s", "lower", 0.0))
                if trace == 0 and name not in specs:
                    continue
                o, n = old[workload][name], new[workload][name]
                v, change, wide = verdict(o, n, better, bound)
                if name in na:
                    v = "n/a"
                rows.append((workload, name, unit,
                             statistics.median(p[0] for p in o),
                             statistics.median(p[0] for p in n),
                             change, wide, bound, v))
    return rows


def print_rows(rows) -> None:
    print(f"{'workload':16} {'metric':30} {'unit':7} {'old':>12} {'new':>12} "
          f"{'worse by':>9} {'spread':>8} {'bound':>6}  verdict")
    for w, name, unit, o, n, change, wide, bound, v in rows:
        wide = "?" if wide is None else f"{100 * wide:.2f}%"
        print(f"{w:16} {name:30} {unit:7} {o:12.6g} {n:12.6g} "
              f"{100 * change:8.2f}% {wide:>8} {100 * bound:5.1f}%  {v}")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    print_rows(compare(load_runs(sys.argv[1]), load_runs(sys.argv[2])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
