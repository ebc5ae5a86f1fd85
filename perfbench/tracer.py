"""Run the igaspectra CLI with spans recorded around every layer boundary.

Usage: python tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...

The program is not edited: public functions are wrapped under the names
their callers look them up by (``pipeline.solve_generalized`` is the
name ``pipeline`` calls the eigensolver by).  Each span records its
name, start, end, parent span and run id, plus counters taken at the
boundary.  Spans stay in memory and are written to SPANS_JSON after
the CLI returns; stdout is the CLI's own, byte for byte.

Spans of the eigensolve, tensor sum and exact spectrum also record the
peak of memory allocated inside them, traced with ``tracemalloc`` while
the span is open (numpy registers its buffers with it).
"""

import functools
import json
import sys
import time
import tracemalloc
import weakref

_T_START = time.perf_counter()

#: (module, attribute path, layer).  The span name is
#: "<module>.<attribute path>", i.e. the name the caller uses.
SPANS = (
    ("cli", "main", "cli"),
    ("cli", "render", "cli"),
    ("pipeline", "spectrum_rows", "pipeline"),
    ("pipeline", "convergence_table", "pipeline"),
    ("pipeline", "condition_summary", "pipeline"),
    ("pipeline", "solve_nd", "pipeline"),
    ("pipeline", "solve_1d", "pipeline"),
    ("pipeline", "build_1d", "pipeline"),
    ("pipeline", "assemble_1d", "assembly"),
    ("pipeline", "assemble_1d_reference_gauss", "assembly"),
    ("assembly", "assemble_1d", "assembly"),
    ("bspline", "KnotVector.all_basis_ders", "bspline"),
    ("assembly", "boundary_derivatives", "bspline"),
    ("pipeline", "optimal_blending", "quadrature"),
    ("quadrature", "gauss_legendre", "quadrature"),
    ("quadrature", "gauss_lobatto", "quadrature"),
    ("assembly", "map_to_element", "quadrature"),
    ("analysis", "gauss_legendre", "quadrature"),
    ("analysis", "map_to_element", "quadrature"),
    ("pipeline", "solve_generalized", "eigsolve"),
    ("pipeline", "spectral_sum", "tensor"),
    ("pipeline", "eigenvalue_errors", "analysis"),
    ("analysis", "ExactSpectrum.eigenvalues", "analysis"),
    ("pipeline", "eigenfunction_errors", "analysis"),
    ("pipeline", "convergence_rates", "analysis"),
    ("pipeline", "condition_report", "analysis"),
)

#: Spans whose allocation peak is recorded.
_MEMORY = {"pipeline.solve_generalized", "pipeline.spectral_sum",
           "analysis.ExactSpectrum.eigenvalues"}


class Tracer:
    """In-memory span recorder for one CLI run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []      # [id, parent, name, start, end, counters]
        self._stack = []
        # id() -> weakref of Spectrum objects produced by spectral_sum, so
        # consumers can count how many of its sums they read
        self._sums = {}

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        count = _COUNTERS.get(name)
        memory = name in _MEMORY
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            if memory:
                tracemalloc.start()
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            counters = count(self, args, out) if count else {}
            if memory:
                counters["peak_mb"] = peak / 2 ** 20
            rec[5] = counters or None
            return out

        setattr(owner, attr, traced)

    def from_sum(self, spectrum) -> bool:
        ref = self._sums.get(id(spectrum))
        return ref is not None and ref() is spectrum

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "import_s": import_s,
                       "fields": ["id", "parent", "name", "start", "end", "counters"],
                       "spans": self.spans}, fh)


def _count_assembly(tracer, args, out):
    return {"elements": args[0].n_elements}


def _count_solve(tracer, args, out):
    vecs = out.eigenvectors
    return {"dof": out.n, "vectors_returned": 0 if vecs is None else vecs.shape[1]}


def _count_sum(tracer, args, out):
    tracer._sums[id(out)] = weakref.ref(out)
    return {"sums_formed": out.n}


def _count_errors(tracer, args, out):
    return {"sums_read": args[0].n if tracer.from_sum(args[0]) else 0}


def _count_condition(tracer, args, out):
    # condition_report reads the two extremes of each spectrum
    return {"sums_read": sum(2 for s in args[:2] if tracer.from_sum(s))}


def _count_efun(tracer, args, out):
    modes = args[2] if len(args) > 2 else (1,)
    return {"vectors_read": len(modes)}


def _count_render(tracer, args, out):
    return {"output_bytes": len(out.encode())}


_COUNTERS = {
    "pipeline.assemble_1d": _count_assembly,
    "assembly.assemble_1d": _count_assembly,
    "pipeline.solve_generalized": _count_solve,
    "pipeline.spectral_sum": _count_sum,
    "pipeline.eigenvalue_errors": _count_errors,
    "pipeline.condition_report": _count_condition,
    "pipeline.eigenfunction_errors": _count_efun,
    "cli.render": _count_render,
}


def main() -> int:
    spans_path, run_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...")
    import importlib

    from igaspectra import cli
    import_s = time.perf_counter() - _T_START

    tracer = Tracer(run_id)
    for module, path, _ in SPANS:
        owner = importlib.import_module(f"igaspectra.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, f"{module}.{path}")
    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(spans_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
