"""End-to-end drivers tying the modules together.

These helpers build, solve and post-process whole experiments and are
shared by the command line front end, the demo scripts and the tests.
Multi-dimensional spectra always go through the separable path: solve
the 1D pencil once per axis, then combine eigenvalues by summation.
"""

import numpy as np

from .analysis import (ExactSpectrum, condition_report, convergence_rates,
                       eigenfunction_errors, eigenvalue_errors)
from .assembly import PenaltyConfig, assemble_1d, assemble_1d_reference_gauss
from .bspline import BSplineSpace
from .eigsolve import Spectrum, _check_dense_fits, solve_generalized
from .errors import ConfigurationError
from .quadrature import optimal_blending
from .tensor import spectral_sum

__all__ = ["build_1d", "solve_1d", "solve_nd", "spectrum_rows",
           "convergence_table", "condition_summary"]


def build_1d(degree: int, n_elements: int, quadrature: str = "blended",
             penalty: bool = True):
    """Assemble the 1D pair for a named scheme.

    quadrature "gauss" is the fully integrated (p+1)-point baseline,
    "blended" the dispersion-optimal Gauss/Lobatto combination.
    """
    space = BSplineSpace.create(degree, n_elements)
    pen = PenaltyConfig.for_degree(degree) if penalty else PenaltyConfig.off()
    if quadrature == "gauss":
        K, M = assemble_1d_reference_gauss(space, pen)
    elif quadrature == "blended":
        K, M = assemble_1d(space, optimal_blending(degree), pen)
    else:
        raise ConfigurationError(f"unknown quadrature scheme '{quadrature}'")
    return space, K, M


def solve_1d(degree: int, n_elements: int, quadrature: str = "blended",
             penalty: bool = True, want_vectors: bool = True) -> Spectrum:
    """Solve the 1D problem; refuses an oversized mesh before assembling it."""
    _check_dense_fits(max(n_elements + degree - 2, 0))  # n_dof, known up front
    _, K, M = build_1d(degree, n_elements, quadrature, penalty)
    return solve_generalized(K, M, want_vectors=want_vectors)


def solve_nd(dim: int, degree: int, n_elements: int, quadrature: str = "blended",
             penalty: bool = True, k: int | None = None) -> Spectrum:
    """Spectrum on [0, 1]^dim with the same mesh and scheme on every axis.

    With ``k``, a 2D/3D spectrum holds only its k smallest sums.
    """
    if dim not in (1, 2, 3):
        raise ConfigurationError(f"dim must be 1, 2 or 3, got {dim}")
    axis = solve_1d(degree, n_elements, quadrature, penalty,
                    want_vectors=(dim == 1))
    if dim == 1:
        return axis
    return spectral_sum([axis] * dim, k=k)


def spectrum_rows(dim: int, degree: int, n_elements: int,
                  quadrature: str = "blended", penalty: bool = True):
    """Per-mode rows (rank, rank/N, exact, approx, relative error)."""
    spec = solve_nd(dim, degree, n_elements, quadrature, penalty)
    rep = eigenvalue_errors(spec, ExactSpectrum(dim))
    return [{"rank": int(rep.ranks[i]),
             "rank_fraction": float(rep.rank_fraction[i]),
             "lambda_exact": float(rep.exact[i]),
             "lambda_approx": float(rep.approx[i]),
             "relative_error": float(rep.relative_errors[i])}
            for i in range(len(rep.ranks))]


def convergence_table(dim: int, degree: int, meshes, modes=(1, 6),
                      quadrature: str = "blended", penalty: bool = True):
    """Eigenvalue (and in 1D eigenfunction) errors over a mesh sequence.

    Returns (rows, rates): one row per mesh with the per-mode errors,
    and a rate dict per tracked quantity fitted with the standard floor
    rule (None where the data sits at machine precision).
    """
    modes = tuple(modes)
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
