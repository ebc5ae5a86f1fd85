"""Run CLI workloads in child processes and turn what they did into metrics.

One parent process starts one child at a time (a closed loop with one
client).  Each child's wall time runs from spawn to exit; its CPU time
and peak RSS come from ``wait4``.  BLAS runs one thread per child, set
through the environment because the CLI's ``--threads`` flag has no
effect.

numpy is imported only after ``pin_blas_threads`` has run, so the
parent's own reference solves use the same thread count as the
children.
"""

import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import SPANS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
TRACER = ROOT / "perfbench" / "tracer.py"

BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: No child starts after this many seconds of a run, and none outlives
#: them, so a run ends well inside three minutes even if a command hangs.
RUN_LIMIT_S = 140.0
LAYER_OF = {f"{module}.{path}": layer for module, path, layer in SPANS}

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "accuracy_digits": "digits",
}

#: Per-layer metrics of a traced run: name -> (unit, scope).  The scope
#: is the layer or span the metric belongs to; a workload that never
#: enters it reads 0 and the metric is listed as not applicable in the
#: result record (``compare.py`` and ``suite.py`` print ``n/a``).
PER_LAYER = {
    "bspline.basis_calls": ("count", "bspline"),
    "bspline.basis_s": ("s", "bspline"),
    "assembly.self_s": ("s", "assembly"),
    "assembly.elements": ("count", "assembly"),
    "analysis.efun_s": ("s", "pipeline.eigenfunction_errors"),
    "eigsolve.solve_s": ("s", "eigsolve"),
    "eigsolve.dof": ("count", "eigsolve"),
    "eigsolve.vectors_returned": ("count", "eigsolve"),
    "eigsolve.vectors_used_ratio": ("ratio", "eigsolve"),
    "eigsolve.peak_mb": ("MiB", "eigsolve"),
    "tensor.sum_s": ("s", "tensor"),
    "tensor.sums_formed": ("count", "tensor"),
    "tensor.sums_used_ratio": ("ratio", "tensor"),
    "tensor.peak_mb": ("MiB", "tensor"),
    "analysis.exact_s": ("s", "analysis.ExactSpectrum.eigenvalues"),
    "analysis.exact_peak_mb": ("MiB", "analysis.ExactSpectrum.eigenvalues"),
    "analysis.errors_s": ("s", "pipeline.eigenvalue_errors"),
    "analysis.rates_s": ("s", "pipeline.convergence_rates"),
    "cli.render_s": ("s", "cli.render"),
    "cli.output_bytes": ("bytes", "cli.render"),
    "quadrature.rule_s": ("s", "quadrature"),
    "quadrature.calls": ("count", "quadrature"),
    "pipeline.self_s": ("s", "pipeline"),
    "trace.wall_s": ("s", None),
    "trace.overhead_s": ("s", None),
    "trace.accounted_pct": ("%", None),
}

#: Self-time metrics: their seconds are the self time of their scope.
_SELF_TIMES = [name for name, (unit, scope) in PER_LAYER.items()
               if unit == "s" and scope is not None]


def pin_blas_threads() -> None:
    """Fix the BLAS thread count for this process and its children.

    Call before numpy is imported.
    """
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in _BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Child:
    """Outcome of one child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    timed_out: bool
    stderr: str
    digest: str
    out_path: Path
    spans_path: Path | None = None

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out and not self.stderr


def spawn(argv, tag: str, timeout: float, spans_path: Path | None = None) -> Child:
    """Run argv from the checkout root with stdout/stderr sent to files.

    The child is killed after ``timeout`` seconds.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"{tag}.stdout"
    err_path = OUT / f"{tag}.stderr"
    timed_out = []

    def kill(pid):
        timed_out.append(True)
        os.kill(pid, signal.SIGKILL)

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, kill, (proc.pid,))
        timer.start()
        try:
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_bytes()
    err_path.unlink()
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, bool(timed_out), stderr.decode(errors="replace"),
                 digest, out_path, spans_path)


def _probe(tag: str, timeout: float = RUN_LIMIT_S) -> Child:
    """A fresh interpreter that imports igaspectra and prints where from."""
    return spawn([sys.executable, "-c",
                  "import igaspectra, sys; sys.stdout.write(igaspectra.__file__)"], tag, timeout)


def _cli(workload, tag: str, timeout: float = RUN_LIMIT_S) -> Child:
    return spawn([sys.executable, "-m", "igaspectra", *workload.argv], tag, timeout)


def _traced(workload, tag: str, timeout: float) -> Child:
    spans = OUT / f"{tag}.spans.json"
    return spawn([sys.executable, str(TRACER), str(spans), tag, "--", *workload.argv], tag,
                 timeout, spans)


def _stats(values) -> dict:
    if not values:
        return {"value": 0.0, "n": 0}
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "igaspectra").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    """Versions, BLAS build and thread settings of this benchmark run."""
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": list(_BLAS_VARS),
        "cli_threads_flag": "no effect; the thread count is set through the environment",
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def check_installation() -> None:
    """Refuse to run unless igaspectra imports from this checkout's src/.

    The import also warms up: it compiles bytecode and fills the file
    cache before anything is timed.
    """
    if not (SRC / "igaspectra" / "__init__.py").is_file():
        raise SystemExit(f"no igaspectra sources under {SRC}")
    child = _probe(f"install-check-{os.getpid()}")
    where = child.out_path.read_text()
    child.out_path.unlink()
    if not child.ok or not Path(where).resolve().is_relative_to(SRC):
        raise SystemExit(f"igaspectra does not import from {SRC}: {child.stderr or where}")
    # the output checks solve reference pencils with the same sources
    sys.path.insert(0, str(SRC))


def _self_times(spans) -> tuple:
    """Self time per span name and per layer, and the time under the roots."""
    child_time = {}
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    by_name, by_layer, rooted = {}, {}, 0.0
    for sid, parent, name, start, end, _ in spans:
        self_s = (end - start) - child_time.get(sid, 0.0)
        by_name[name] = by_name.get(name, 0.0) + self_s
        by_layer[LAYER_OF[name]] = by_layer.get(LAYER_OF[name], 0.0) + self_s
        if parent is None:
            rooted += end - start
    return by_name, by_layer, rooted


def layer_metrics(dump: dict) -> tuple:
    """Per-layer metrics of one traced CLI run, from its span dump.

    Returns the metrics and the names of those not applicable: the
    workload never entered their scope, or a ratio has nothing to divide.
    """
    spans = dump["spans"]
    by_name, by_layer, rooted = _self_times(spans)
    self_time = by_name | by_layer

    def total(key):
        return sum((c or {}).get(key, 0) for _, _, _, _, _, c in spans)

    def peak(name):
        return max([(c or {}).get("peak_mb", 0.0) for _, _, n, _, _, c in spans if n == name],
                   default=0.0)

    def calls(pred):
        return sum(1 for _, _, n, _, _, _ in spans if pred(n))

    out = {metric: self_time.get(PER_LAYER[metric][1], 0.0) for metric in _SELF_TIMES}
    returned = total("vectors_returned")
    formed = total("sums_formed")
    out.update({
        "bspline.basis_calls": calls(lambda n: n == "bspline.KnotVector.all_basis_ders"),
        "assembly.elements": total("elements"),
        "eigsolve.dof": total("dof"),
        "eigsolve.vectors_returned": returned,
        "eigsolve.vectors_used_ratio": total("vectors_read") / returned if returned else 0.0,
        "eigsolve.peak_mb": peak("pipeline.solve_generalized"),
        "tensor.sums_formed": formed,
        "tensor.sums_used_ratio": total("sums_read") / formed if formed else 0.0,
        "tensor.peak_mb": peak("pipeline.spectral_sum"),
        "analysis.exact_peak_mb": peak("analysis.ExactSpectrum.eigenvalues"),
        "cli.output_bytes": total("output_bytes"),
        "quadrature.calls": calls(lambda n: LAYER_OF[n] == "quadrature"),
        "trace.spanned_s": rooted,
        "trace.import_s": dump["import_s"],
    })
    not_applicable = {m for m, (_, scope) in PER_LAYER.items()
                      if scope is not None and scope not in self_time}
    if not returned:
        not_applicable.add("eigsolve.vectors_used_ratio")
    if not formed:
        not_applicable.add("tensor.sums_used_ratio")
    return out, not_applicable


def _run_schedule(workload, rng, base: str, seconds: float, trace: bool,
                  probes: int, min_repeats: int) -> tuple:
    """Import probes and CLI repeats, one child at a time."""
    kinds = ["U", "T"] if trace else ["U"]
    schedule = ["P"] * probes + kinds * min_repeats
    rng.shuffle(schedule)
    probe_runs, repeats = [], []   # repeats: (kind, Child)
    used = 0.0
    limit = time.monotonic() + RUN_LIMIT_S
    while time.monotonic() < limit:
        if schedule:
            token = schedule.pop(0)
        else:
            if used + len(kinds) * statistics.median(c.wall_s for _, c in repeats) > seconds:
                break
            token = kinds[len(repeats) % len(kinds)]
        tag = f"{base}-{len(probe_runs) + len(repeats)}"
        timeout = limit - time.monotonic()
        if token == "P":
            child = _probe(tag, timeout)
            child.out_path.unlink()
            probe_runs.append(child)
        else:
            child = (_traced(workload, tag, timeout) if token == "T"
                     else _cli(workload, tag, timeout))
            used += child.wall_s
            repeats.append((token, child))
    return probe_runs, repeats


def _verify(workload, probe_runs, repeats) -> tuple:
    """(failures, failed count, stdout digest, accuracy_digits or None).

    Deletes the captured outputs once checked.
    """
    from workloads import CheckError, check_output

    failures = [f"probe exit {c.code}, stderr {c.stderr[-500:]!r}"
                for c in probe_runs if not c.ok]
    failures += [f"{kind} exit {c.code}, timed out {c.timed_out}, stderr {c.stderr[-500:]!r}"
                 for kind, c in repeats if not c.ok]
    if not repeats:
        failures.append(f"no repeat started within {RUN_LIMIT_S:g} s")
    good = [c for _, c in repeats if c.ok]
    digest = good[0].digest if good else None
    failures += [f"stdout digest {c.digest} differs from {digest}"
                 for c in good if c.digest != digest]
    failed = sum(1 for c in probe_runs if not c.ok)
    failed += sum(1 for _, c in repeats if not c.ok or c.digest != digest)
    accuracy = None
    if good:
        try:
            accuracy = check_output(workload, good[0].out_path.read_text())
        except CheckError as exc:
            failures.append(f"output check: {exc}")
            failed = len(probe_runs) + len(repeats)
    for _, c in repeats:
        c.out_path.unlink()
    return failures, failed, digest, accuracy


def _trace_layers(traced, untraced_wall: float, setup_s: float, spans_file: Path) -> tuple:
    """Per-layer metrics (medians over traced repeats) and those not applicable."""
    dumps = [json.loads(c.spans_path.read_text()) for c in traced if c.spans_path.exists()]
    for c in traced:
        c.spans_path.unlink(missing_ok=True)
    spans_file.write_text(json.dumps(dumps))
    per_run = [layer_metrics(d) for d in dumps] or [layer_metrics({"spans": [], "import_s": 0.0})]
    layers = {key: _stats([m[key] for m, _ in per_run]) for key in per_run[0][0]}
    not_applicable = set.intersection(*(na for _, na in per_run))
    wall = _stats([c.wall_s for c in traced])
    layers["trace.wall_s"] = wall
    layers["trace.overhead_s"] = {"value": wall["value"] - untraced_wall, "n": wall["n"]}
    outside_setup = wall["value"] - setup_s
    accounted = sum(layers[m]["value"] for m in _SELF_TIMES)
    layers["trace.accounted_pct"] = {
        "value": 100.0 * accounted / outside_setup if outside_setup > 0 else 0.0,
        "n": wall["n"]}
    return layers, sorted(not_applicable), len(dumps) == len(traced)


def measure(workload, seed: int, seconds: float, trace: bool,
            probes: int = 5, min_repeats: int = 3) -> dict:
    """One benchmark run of one workload; returns its result record.

    Import probes (for setup_s) are shuffled by ``seed`` among the first
    repeats; further repeats run while their predicted end stays within
    ``seconds`` of repeat time.  With ``trace`` the repeats alternate
    between untraced and traced children.
    """
    base = f"{workload.name}-s{seed}-t{int(trace)}"
    probe_runs, repeats = _run_schedule(workload, random.Random(seed), base, seconds,
                                        trace, probes, min_repeats)
    failures, failed, digest, accuracy = _verify(workload, probe_runs, repeats)
    untraced = [c for k, c in repeats if k == "U"]
    samples = {
        "wall_s": [c.wall_s for c in untraced],
        "cpu_s": [c.cpu_s for c in untraced],
        "peak_rss_mb": [c.rss_mb for c in untraced],
        "setup_s": [c.wall_s for c in probe_runs],
    }
    metrics = {k: _stats(v) for k, v in samples.items()}
    metrics["accuracy_digits"] = {"value": 0.0 if accuracy is None else accuracy, "n": 1}
    record = {
        "workload": workload.name,
        "argv": list(workload.argv),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(probe_runs) + len(repeats),
        "failed": failed,
        "failures": failures,
        "stdout_sha256": digest,
        "samples": samples,
        "metrics": metrics,
    }
    if trace:
        traced = [c for k, c in repeats if k == "T"]
        spans_file = OUT / f"{base}.spans.json"
        layers, not_applicable, complete = _trace_layers(
            traced, metrics["wall_s"]["value"], metrics["setup_s"]["value"], spans_file)
        if not complete:
            failures.append("a traced run left no spans")
        samples["trace.wall_s"] = [c.wall_s for c in traced]
        record.update(layers=layers, not_applicable=not_applicable,
                      spans_file=str(spans_file.relative_to(ROOT)))
    record["correct"] = not failures
    return record


def summary_line(record: dict) -> dict:
    """The one-line JSON result: end-to-end or per-layer metrics only."""
    units, source = (({k: unit for k, (unit, _) in PER_LAYER.items()}, record["layers"])
                     if record["trace"] else (END_TO_END, record["metrics"]))
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": source[k]["value"], "unit": u} for k, u in units.items()},
    }


def write_result(record: dict, env: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": 1, "env": env, "runs": [record]}, indent=1) + "\n")
