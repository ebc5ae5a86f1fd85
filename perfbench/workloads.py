"""Benchmark workloads and the checks that decide whether an output is right.

Each workload is one fixed ``python -m igaspectra`` command line.  The
checks read everything they need (command, dimension, degree, meshes)
from that command line, so the same code checks the full-size
workloads and the tiny ones of ``smoke.py``.

Reference values are computed here, independently of the program:
exact eigenvalues are enumerated as sums of squares times pi^2, and
the Kronecker-sum identities of ``condition`` are checked against 1D
pencils solved through ``igaspectra.solve_1d``.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

#: Relative error below which an eigenvalue counts as exact; caps
#: ``accuracy_digits`` at 17 so the metric stays finite.
_ERROR_FLOOR = 1e-17


@dataclass(frozen=True)
class Workload:
    """One benchmarked command line and its output ceiling."""

    name: str
    argv: tuple
    why: str
    #: ``convergence`` only: every reported error must stay below this.
    error_ceiling: float = 1e-4

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def dim(self) -> int:
        return int(self.option("--dim"))

    @property
    def degree(self) -> int:
        return int(self.option("--degree"))

    @property
    def elements(self) -> list:
        return [int(n) for n in self.option("--elements").split(",")]

    @property
    def modes(self) -> list:
        return [int(m) for m in self.option("--modes").split(",")]


def _workload(name, command, why, **extra):
    return Workload(name, tuple(command.split()), why, **extra)


WORKLOADS = {w.name: w for w in (
    _workload(
        "convergence-1d",
        "convergence --dim 1 --degree 7 --elements 100,200,400,800 --modes 1,6",
        "per-element Python loops: basis tabulation ~60% and assembly ~9% of traced "
        "time, eigensolve ~27%; the only workload that reads eigenvectors (8 of 1520)"),
    _workload(
        "condition-3d",
        "condition --dim 3 --degree 5 --elements 300",
        "spectral_sum sorts 2 x 27.5M sums to read 4 of them: ~84% of traced time "
        "and the 938 MiB peak RSS; assembly and eigensolve are small"),
    _workload(
        "spectrum-3d",
        "spectrum --dim 3 --degree 3 --elements 50",
        "ExactSpectrum box enumeration ~50% of traced time and its 748 MiB peak, "
        "rendering 11.3 MB of CSV ~40%; every one of the 132,651 tensor sums is read"),
)}


class CheckError(Exception):
    """An output failed one of the workload's checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _digits(rel_errors) -> float:
    worst = float(np.max(np.abs(rel_errors)))
    return -math.log10(max(worst, _ERROR_FLOOR))


def _csv(text: str):
    """Header names and the numeric rows of a CLI CSV payload."""
    lines = text.splitlines()
    _require(len(lines) >= 2, "output has no data rows")
    header = lines[0].split(",")
    return header, lines[1:]


def _table(header, lines) -> dict:
    data = np.loadtxt(io.StringIO("\n".join(lines)), delimiter=",", ndmin=2)
    _require(data.shape[1] == len(header), "row width does not match the header")
    return {name: data[:, k] for k, name in enumerate(header)}


def exact_sums_of_squares(dim: int, count: int) -> np.ndarray:
    """The ``count`` smallest sums j1^2 + .. + jd^2 over jk >= 1, ascending.

    Finds the smallest bound T whose lattice count reaches ``count`` by
    bisection on exact integer counts, then lists every tuple up to T.
    """
    def how_many(t: int) -> int:
        # tuples with sum of squares <= t; the last index is counted by isqrt
        if dim == 1:
            return math.isqrt(t)
        j = np.arange(1, math.isqrt(t) + 1)
        if dim == 2:
            rest = t - j * j
        else:
            rest = (t - j[:, None] ** 2 - j[None, :] ** 2).ravel()
        rest = rest[rest >= 1]
        return int(sum(math.isqrt(int(r)) for r in rest))

    lo, hi = dim, dim
    while how_many(hi) < count:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if how_many(mid) >= count:
            hi = mid
        else:
            lo = mid + 1
    j = np.arange(1, math.isqrt(lo) + 1, dtype=np.int64) ** 2
    grid = j
    for _ in range(dim - 1):
        grid = (grid[:, None] + j[None, :]).ravel()
    grid = np.sort(grid[grid <= lo])
    _require(len(grid) >= count, "internal error: lattice enumeration too short")
    return grid[:count]


def _exact(dim: int, count: int) -> np.ndarray:
    return math.pi ** 2 * exact_sums_of_squares(dim, count).astype(float)


def _close(a, b, rtol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= rtol * np.abs(b)))


def _check_spectrum(w: Workload, text: str) -> float:
    p, n, d = w.degree, w.elements[0], w.dim
    header, lines = _csv(text)
    _require(header == ["rank", "rank_fraction", "lambda_exact", "lambda_approx",
                        "relative_error"], f"unexpected header {header}")
    expected_rows = (n + p - 2) ** d
    _require(len(lines) == expected_rows,
             f"{len(lines)} rows, expected (n+p-2)^d = {expected_rows}")
    cols = _table(header, lines)
    _require(np.array_equal(cols["rank"], np.arange(1, expected_rows + 1)),
             "ranks are not 1..N")
    exact = _exact(d, expected_rows)
    _require(_close(cols["lambda_exact"], exact, 1e-14),
             "lambda_exact differs from the enumerated sums of squares times pi^2")
    approx = cols["lambda_approx"]
    _require(bool(np.all(np.isfinite(approx))), "non-finite eigenvalue")
    _require(bool(np.all(np.diff(approx) >= 0)), "lambda_approx is not ascending")
    k = min(6, expected_rows)
    return _digits((approx[:k] - exact[:k]) / exact[:k])


def _check_convergence(w: Workload, text: str) -> float:
    import igaspectra

    meshes, modes, p = w.elements, w.modes, w.degree
    header, lines = _csv(text)
    _require(len(lines) == len(meshes) + 1, "expected one row per mesh plus a rate row")
    _require(lines[-1].startswith("rate,"), "last row is not the rate row")
    cols = _table(header, lines[:-1])
    _require(np.array_equal(cols["n_elements"], meshes), "n_elements differs from --elements")
    _require(np.array_equal(cols["h"], 1.0 / np.array(meshes, dtype=float)),
             "h differs from 1/n")
    errors = [name for name in header if "error" in name]
    expected = {f"{kind}_mode{m}" for m in modes
                for kind in ("lambda_rel_error", "h1_error", "l2_error")}
    _require(set(errors) == expected, f"error columns {errors}, expected {sorted(expected)}")
    for name in errors:
        col = cols[name]
        _require(bool(np.all(np.isfinite(col))), f"{name} is not finite")
        _require(bool(np.all(col < w.error_ceiling)),
                 f"{name} exceeds the ceiling {w.error_ceiling:g}")
    # The fitted rates are not gated: above the 400-DOF polish cut-off
    # rounding noise dominates and they come out negative.  That defect
    # shows through accuracy_digits instead.
    spec = igaspectra.solve_1d(p, meshes[-1])
    k = min(6, spec.n)
    exact = _exact(1, k)
    rel = (spec.eigenvalues[:k] - exact) / exact
    for m in modes:
        if m <= k:
            reported = cols[f"lambda_rel_error_mode{m}"][-1]
            _require(abs(reported - abs(rel[m - 1])) <= 1e-6 * abs(rel[m - 1]) + 1e-15,
                     f"mode {m} error on the finest mesh differs from an "
                     "independent solve")
    return _digits(rel)


def _check_condition(w: Workload, text: str) -> float:
    import igaspectra

    p, n, d = w.degree, w.elements[0], w.dim
    header, lines = _csv(text)
    _require(len(lines) == 1, "condition prints exactly one row")
    row = {k: v[0] for k, v in _table(header, lines).items()}
    base = igaspectra.solve_1d(p, n, "gauss", penalty=False, want_vectors=False).eigenvalues
    treat = igaspectra.solve_1d(p, n, "blended", penalty=True, want_vectors=False).eigenvalues
    # extremes of a Kronecker sum of d equal pencils are d times the 1D extremes
    for name, value in (("lambda_min", d * base[0]), ("lambda_max", d * base[-1]),
                        ("lambda_max_treated", d * treat[-1])):
        _require(_close(row[name], value, 1e-13),
                 f"{name} = {row[name]!r}, expected {d} x 1D = {value!r}")
    rho = (base[-1] / base[0]) / (treat[-1] / treat[0])
    _require(_close(row["reduction_percent"], 100.0 * (1.0 - 1.0 / rho), 1e-12),
             "reduction_percent differs from the 1D value")
    exact_min = d * math.pi ** 2
    rel = (row["lambda_min"] - exact_min) / exact_min
    _require(abs(rel) < 1e-6, f"lambda_min is {row['lambda_min']!r}, expected ~{d} pi^2")
    return _digits([rel])


_CHECKS = {
    "spectrum": _check_spectrum,
    "convergence": _check_convergence,
    "condition": _check_condition,
}


def check_output(w: Workload, text: str) -> float:
    """Validate one CLI stdout payload; returns ``accuracy_digits``.

    Raises CheckError on the first failed check.
    """
    return _CHECKS[w.command](w, text)
