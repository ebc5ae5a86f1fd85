"""End-to-end drivers tying the modules together.

These helpers build, solve and post-process whole experiments and are
shared by the command line front end, the demo scripts and the tests.
Multi-dimensional spectra always go through the separable path: solve
the 1D pencil once per axis, then combine eigenvalues by summation.
"""

import numpy as np

from .analysis import (ExactSpectrum, condition_report, convergence_rates,
                       eigenfunction_errors, eigenvalue_errors)
from .assembly import assemble_1d, assemble_1d_reference_gauss
from .bspline import BSplineSpace
from .eigsolve import Spectrum, _check_dense_fits, solve_generalized
from .errors import ConfigurationError, check_memory
from .quadrature import optimal_blending
from .tensor import spectral_sum

__all__ = ["build_1d", "solve_1d", "solve_nd", "spectrum_rows",
           "convergence_table", "condition_summary"]


def _assembly_bytes(degree: int, n_elements: int) -> int:
    """Peak bytes of ``build_1d``, estimated from the element count and degree.

    Element matrices, basis tables and their products: the tracemalloc
    peak measured at p = 1..7 and n = 2000 and 20000 fits under
    4 (p+1)^2 + 6 (p+1) + 24 doubles per element.
    """
    return 8 * n_elements * (4 * (degree + 1) ** 2 + 6 * (degree + 1) + 24)


def build_1d(degree: int, n_elements: int, quadrature: str = "blended",
             penalty: bool = True):
    """Assemble the 1D pair for a named scheme.

    quadrature "gauss" is the fully integrated (p+1)-point baseline,
    "blended" the dispersion-optimal Gauss/Lobatto combination.  Refuses
    with ResourceError, before allocating, a mesh whose assembly would
    not fit in physical memory.
    """
    check_memory(_assembly_bytes(degree, n_elements), "assembly",
                 f"{n_elements} elements of degree {degree}")
    space = BSplineSpace.create(degree, n_elements)
    if quadrature == "gauss":
        K, M = assemble_1d_reference_gauss(space, penalty)
    elif quadrature == "blended":
        K, M = assemble_1d(space, optimal_blending(degree), penalty)
    else:
        raise ConfigurationError(f"unknown quadrature scheme '{quadrature}'")
    return space, K, M


def solve_1d(degree: int, n_elements: int, quadrature: str = "blended",
             penalty: bool = True, want_vectors: bool = True) -> Spectrum:
    """Solve the 1D problem; refuses an oversized mesh before assembling it."""
    _check_dense_fits(max(n_elements + degree - 2, 0), degree + 1)  # known up front
    _, K, M = build_1d(degree, n_elements, quadrature, penalty)
    return solve_generalized(K, M, want_vectors=want_vectors)


def solve_nd(dim: int, degree: int, n_elements: int, quadrature: str = "blended",
             penalty: bool = True, k: int | None = None) -> Spectrum:
    """Spectrum on [0, 1]^dim with the same mesh and scheme on every axis.

    With ``k``, a 2D/3D spectrum holds only its k smallest sums.
    """
    if dim not in (1, 2, 3):
        raise ConfigurationError(f"dim must be 1, 2 or 3, got {dim}")
    if k is not None and k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    axis = solve_1d(degree, n_elements, quadrature, penalty,
                    want_vectors=(dim == 1))
    if dim == 1:
        return axis
    return spectral_sum([axis] * dim, k=k)


def spectrum_rows(dim: int, degree: int, n_elements: int,
                  quadrature: str = "blended", penalty: bool = True) -> dict:
    """Per-mode columns: rank, rank/N, exact, approx, relative error.

    Returns one list per column, keyed by column name in output order.
    """
    spec = solve_nd(dim, degree, n_elements, quadrature, penalty)
    rep = eigenvalue_errors(spec, ExactSpectrum(dim))
    return {"rank": rep.ranks.tolist(),
            "rank_fraction": rep.rank_fraction.tolist(),
            "lambda_exact": rep.exact.tolist(),
            "lambda_approx": rep.approx.tolist(),
            "relative_error": rep.relative_errors.tolist()}


def convergence_table(dim: int, degree: int, meshes, modes=(1, 6),
                      quadrature: str = "blended", penalty: bool = True):
    """Eigenvalue (and in 1D eigenfunction) errors over a mesh sequence.

    Returns (rows, rates): one row per mesh with the per-mode errors,
    and a rate dict per tracked quantity fitted with the standard floor
    rule (None where the data sits at machine precision).
    """
    modes = tuple(modes)
    if not modes:
        raise ConfigurationError("convergence needs at least one --modes entry")
    for m in modes:
        if m < 1:
            raise ConfigurationError(f"--modes entries must be >= 1, got {m}")
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
            space = BSplineSpace.create(degree, n)
            fe = eigenfunction_errors(spec, space, modes)
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
    if dim not in (1, 2, 3):
        raise ConfigurationError(f"dim must be 1, 2 or 3, got {dim}")
    base = solve_1d(degree, n_elements, "gauss", penalty=False, want_vectors=False)
    treat = solve_1d(degree, n_elements, "blended", penalty=True, want_vectors=False)
    return condition_report(Spectrum(dim * base.eigenvalues[[0, -1]]),
                            Spectrum(dim * treat.eigenvalues[[0, -1]]))
