"""End-to-end drivers tying the modules together.

These helpers build, solve and post-process whole experiments and are
shared by the command line front end, the demo scripts and the tests.
Multi-dimensional spectra always go through the separable path.  On
[0, 1]^d the operator separates: with per-axis pairs (K_a, M_a) the
global matrices are Kronecker sums, e.g. in 2D

    K = K_x (x) M_y + M_x (x) K_y,      M = M_x (x) M_y,

and every global eigenvalue is a sum of one per-axis eigenvalue, with
the tensor product of the axis eigenvectors as eigenvector.  So the 1D
pencil is solved once and ``spectral_sum`` combines its eigenvalues,
which scales to meshes whose materialised matrices would not fit in
memory.
"""

import math

import numpy as np

from .analysis import (ExactSpectrum, condition_report, convergence_rates,
                       eigenfunction_errors, eigenvalue_errors)
from .assembly import assemble_1d, assemble_1d_reference_gauss
from .bspline import KnotVector
from .eigsolve import Spectrum, _check_solve_fits, solve_generalized
from .errors import ConfigurationError, check_int, check_memory
from .quadrature import optimal_blending

__all__ = ["build_1d", "solve_1d", "spectral_sum", "solve_nd", "spectrum_rows",
           "convergence_table", "condition_summary"]


def _assembly_bytes(degree: int, n_elements: int) -> int:
    """Peak bytes of ``build_1d``, estimated from the element count and degree.

    The two bands and the knots, 2 (p+1) + 4 doubles per element, and the
    exact tables of a first call with the Fraction arrays each call rounds,
    under 1024 (p+1)^3 bytes: the tracemalloc peak at p = 1..7 and
    n = 1..20000, tables built in the call, stays within 88% of the sum.
    """
    return 8 * n_elements * (2 * (degree + 1) + 4) + 1024 * (degree + 1) ** 3


def _spectrum_bytes(n_rows: int) -> int:
    """Peak bytes of ``spectrum`` for ``n_rows`` modes, its output included.

    The sums, the exact spectrum's index boxes, the five columns and one
    output block of the command line: the tracemalloc peak of the command
    at d = 3, p = 3, n = 20..100, CSV and JSON written to a file, stays
    under 40 bytes per row plus 8 MiB for the block (at most 34.5 for
    CSV and 37.4 for JSON, both at n = 100); 48 leaves a fifth of margin.
    """
    return 48 * n_rows + 8 * 2**20


def build_1d(degree: int, n_elements: int, quadrature: str = "blended",
             penalty: bool = True):
    """Assemble the 1D pair for a named scheme.

    quadrature "gauss" is the fully integrated (p+1)-point baseline,
    "blended" the dispersion-optimal Gauss/Lobatto combination.  Refuses
    with ResourceError, before allocating, a mesh whose assembly would
    not fit in physical memory, and with ConfigurationError one with no
    interior unknowns.
    """
    space = KnotVector(degree, n_elements)
    check_memory(_assembly_bytes(degree, n_elements), "assembly",
                 f"{n_elements} elements of degree {degree}")
    if space.n_dof < 1:
        raise ConfigurationError(
            f"degree {degree} on {n_elements} element(s) has no interior unknowns")
    if quadrature == "gauss":
        K, M = assemble_1d_reference_gauss(space, penalty)
    elif quadrature == "blended":
        K, M = assemble_1d(space, optimal_blending(degree), penalty)
    else:
        raise ConfigurationError(f"unknown quadrature scheme '{quadrature}'")
    return space, K, M


def solve_1d(degree: int, n_elements: int, quadrature: str = "blended",
             penalty: bool = True, want_vectors: bool = True,
             k: int | None = None) -> Spectrum:
    """Solve the 1D problem; refuses an oversized mesh before assembling it.

    With ``k``, only the k smallest pairs (see ``solve_generalized``).
    """
    n_dof = KnotVector(degree, n_elements).n_dof
    if k is not None:
        check_int("k", k, 1)
    _check_solve_fits(n_dof, degree + 1, k)  # the size is known up front
    _, K, M = build_1d(degree, n_elements, quadrature, penalty)
    return solve_generalized(K, M, want_vectors=want_vectors, k=k)


def spectral_sum(axis_spectra, k: int | None = None) -> Spectrum:
    """Combine per-axis 1D spectra into the d-dimensional spectrum.

    Parameters
    ----------
    axis_spectra : sequence of Spectrum
        One per axis (2 or 3 axes).
    k : int, optional
        Keep only the k >= 1 smallest sums, formed from the first k
        eigenvalues of each axis; a tuple with an index >= k has k tuples
        at or below it, so the result is bitwise the head of the full sum.

    Returns
    -------
    Spectrum
        The sums of one eigenvalue per axis, sorted ascending; no
        eigenvectors (they are tensor products, formed on demand).

    Raises ResourceError, before allocating, when the sums and their
    sorted copy would not fit in physical memory.
    """
    if k is not None:
        check_int("k", k, 1)
    arrays = [s.eigenvalues[:k] for s in axis_spectra]
    if not 2 <= len(arrays) <= 3:
        raise ConfigurationError(
            f"spectral_sum supports d in {{2, 3}}, got d = {len(arrays)}")
    count = math.prod(len(a) for a in arrays)
    check_memory(16 * count, "spectral_sum", f"{count} sums and their sorted copy")
    grid = arrays[0]
    for a in arrays[1:]:
        grid = np.add.outer(grid, a)
    return Spectrum(np.sort(grid.ravel(), kind="stable")[:k])


def solve_nd(dim: int, degree: int, n_elements: int, quadrature: str = "blended",
             penalty: bool = True, k: int | None = None) -> Spectrum:
    """Spectrum on [0, 1]^dim with the same mesh and scheme on every axis.

    With ``k``, the spectrum holds only its k smallest eigenvalues: the
    k smallest pairs of the 1D solve (see ``solve_generalized``), and in
    2D/3D the k smallest sums of those axis eigenvalues.
    """
    check_int("dim", dim, 1, 3)
    axis = solve_1d(degree, n_elements, quadrature, penalty, want_vectors=dim == 1, k=k)
    if dim == 1:
        return axis
    return spectral_sum([axis] * dim, k=k)


def spectrum_rows(dim: int, degree: int, n_elements: int,
                  quadrature: str = "blended", penalty: bool = True) -> dict:
    """Per-mode columns: rank, rank/N, exact, approx, relative error.

    Returns one numpy array per column, keyed by column name in output
    order.  Refuses with ResourceError, before solving, a spectrum whose
    rows and output would not fit in physical memory.
    """
    check_int("dim", dim, 1, 3)
    n_rows = KnotVector(degree, n_elements).n_dof ** dim
    check_memory(_spectrum_bytes(n_rows), "spectrum", f"{n_rows} modes")
    if dim == 1:  # the rows read no eigenvectors
        spec = solve_1d(degree, n_elements, quadrature, penalty, want_vectors=False)
    else:
        spec = solve_nd(dim, degree, n_elements, quadrature, penalty)
    rep = eigenvalue_errors(spec, ExactSpectrum(dim))
    return {"rank": rep.ranks,
            "rank_fraction": rep.rank_fraction,
            "lambda_exact": rep.exact,
            "lambda_approx": rep.approx,
            "relative_error": rep.relative_errors}


def convergence_table(dim: int, degree: int, meshes, modes=(1, 6),
                      quadrature: str = "blended", penalty: bool = True):
    """Eigenvalue (and in 1D eigenfunction) errors over a mesh sequence.

    Returns (rows, rates): one row per mesh with the per-mode errors,
    and a rate dict per tracked quantity fitted with the standard floor
    rule (None where the data sits at machine precision).  Refuses,
    before solving, meshes that are not at least 3 strictly increasing
    integers >= 1 and modes that are empty, not integers or below 1.
    """
    meshes, modes = tuple(meshes), tuple(modes)
    for n in meshes:
        check_int("n_elements", n, 1)
    if len(meshes) < 3 or any(a >= b for a, b in zip(meshes, meshes[1:])):
        raise ConfigurationError(
            f"convergence needs at least 3 strictly increasing meshes, got {list(meshes)}")
    if not modes:
        raise ConfigurationError("convergence needs at least one --modes entry")
    for m in modes:
        check_int("--modes entries", m, 1)
    rows = []
    for n in meshes:
        # only the modes up to max(modes) are read
        spec = solve_nd(dim, degree, n, quadrature, penalty, k=max(modes))
        if max(modes) > spec.n:
            raise ConfigurationError(
                f"mode {max(modes)} not resolvable with {spec.n} DOFs (n = {n})")
        rep = eigenvalue_errors(spec, ExactSpectrum(dim))
        row = {"n_elements": int(n), "h": 1.0 / n}
        for mode in modes:
            row[f"lambda_rel_error_mode{mode}"] = float(rep.relative_errors[mode - 1])
        if dim == 1:
            fe = eigenfunction_errors(spec, KnotVector(degree, n), modes)
            for k, mode in enumerate(modes):
                row[f"h1_error_mode{mode}"] = float(fe.h1[k])
                row[f"l2_error_mode{mode}"] = float(fe.l2[k])
        rows.append(row)

    h = np.array([r["h"] for r in rows])
    rates = {key: convergence_rates(h, np.array([r[key] for r in rows]))
             for key in rows[0] if key not in ("n_elements", "h")}
    return rows, rates


def condition_summary(dim: int, degree: int, n_elements: int):
    """Baseline (Gauss, no penalty) vs treated (blended + penalty) conditioning.

    The extremes of a Kronecker sum of d equal pencils are d times the
    1D extremes, so only the 1D eigenvalues are computed.
    """
    check_int("dim", dim, 1, 3)
    # the treated pencil first: build_1d refuses an untabulated degree before any solve
    treat = solve_1d(degree, n_elements, "blended", penalty=True, want_vectors=False)
    base = solve_1d(degree, n_elements, "gauss", penalty=False, want_vectors=False)
    return condition_report(Spectrum(dim * base.eigenvalues[[0, -1]]),
                            Spectrum(dim * treat.eigenvalues[[0, -1]]))
