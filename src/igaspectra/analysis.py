"""Error metrics, convergence rates, conditioning and outlier detection.

Reference solution: on [0, 1]^d with homogeneous Dirichlet conditions
the Laplace eigenvalues are sums of squared integer multiples of pi^2,

    lambda_(j1..jd) = (j1^2 + ... + jd^2) * pi^2,   jk >= 1,

with separable sine eigenfunctions; the 1D eigenfunction of mode j,
normalised to unit L2 norm, is sqrt(2) * sin(j pi x).  Discrete and
exact eigenvalues are paired by ascending rank.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bspline import KnotVector
from .eigsolve import Spectrum
from .errors import check_int
from .quadrature import gauss_legendre, map_to_element

__all__ = [
    "ExactSpectrum",
    "ErrorReport",
    "FunctionErrors",
    "ConditionReport",
    "OutlierMetric",
    "eigenvalue_errors",
    "eigenfunction_errors",
    "convergence_rates",
    "condition_report",
    "outlier_metric",
]

#: Relative errors below this are treated as machine-precision noise.
ERROR_FLOOR = 1e-13
#: The outlier tail: the top 5% of modes, flagged above 10x the bulk error.
TAIL_FRACTION = 0.05
FLAG_RATIO = 10.0


@dataclass(frozen=True)
class ExactSpectrum:
    """Exact Dirichlet Laplace spectrum on the unit box in d dimensions."""

    dim: int

    def __post_init__(self):
        check_int("dim", self.dim, 1, 3)

    def eigenvalues(self, count: int) -> np.ndarray:
        """The ``count`` smallest exact eigenvalues, ascending."""
        check_int("count", count, 1)
        d = self.dim
        # enumerate index boxes, up by 1.25 per step, until the box
        # provably holds the `count` smallest sums of d squares; the first
        # J is the radius whose ball's positive orthant has volume `count`
        # (J = count, (4 count / pi)^(1/2), (6 count / pi)^(1/3)), plus 1
        # for the lattice points that lie on the orthant's faces
        orthant = math.pi ** (d / 2) / math.gamma(d / 2 + 1) / 2**d
        J = math.ceil((count / orthant) ** (1.0 / d)) + 1
        while True:
            j2 = np.arange(1, J + 1) ** 2
            sums = j2
            for _ in range(d - 1):
                sums = np.add.outer(sums, j2)
            # any tuple outside the box has value > J^2 + (d-1)
            sums = sums[sums <= J * J + (d - 1)]
            if len(sums) >= count:
                return (np.pi ** 2) * np.sort(sums)[:count].astype(float)
            J = math.ceil(1.25 * J)

    def eigenfunction_1d(self, mode: int):
        """Unit-L2 1D eigenfunction and derivative for mode j >= 1."""
        w = mode * np.pi
        amp = math.sqrt(2.0)
        return (lambda x: amp * np.sin(w * x),
                lambda x: amp * w * np.cos(w * x))


@dataclass(frozen=True)
class ErrorReport:
    """Relative eigenvalue errors paired by ascending rank."""

    ranks: np.ndarray            # 1-based rank j
    rank_fraction: np.ndarray    # j / N
    exact: np.ndarray
    approx: np.ndarray
    relative_errors: np.ndarray


@dataclass(frozen=True)
class FunctionErrors:
    """H1-seminorm and L2 eigenfunction errors for selected 1D modes."""

    modes: tuple
    h1: np.ndarray
    l2: np.ndarray


@dataclass(frozen=True)
class ConditionReport:
    """Extreme eigenvalues and condition numbers, baseline vs treated."""

    lambda_min: float
    lambda_max: float
    lambda_min_treated: float
    lambda_max_treated: float
    gamma: float
    gamma_treated: float
    rho: float
    reduction_percent: float


@dataclass(frozen=True)
class OutlierMetric:
    """Spectral tail diagnostic: top 5% of modes vs the remaining 95%."""

    top_max: float
    rest_max: float
    flagged: bool


def eigenvalue_errors(spectrum: Spectrum, exact: ExactSpectrum) -> ErrorReport:
    """Pair discrete and exact eigenvalues by rank and report errors."""
    lam = spectrum.eigenvalues
    n = len(lam)
    ex = exact.eigenvalues(n)
    ranks = np.arange(1, n + 1)
    rel = np.abs(lam - ex) / ex
    return ErrorReport(ranks, ranks / n, ex, lam, rel)


def _element_sum(weights: np.ndarray, values: np.ndarray) -> float:
    """Sum over elements i of weights[i] . values[i], added in element order.

    The batched matmul gives each element's dot product and the cumsum
    adds them one after another, bitwise as a loop over elements would.
    """
    per_element = (weights[:, None, :] @ values[:, :, None])[:, 0, 0]
    return float(np.cumsum(per_element)[-1])


def eigenfunction_errors(spectrum: Spectrum, space: KnotVector,
                         modes=(1,)) -> FunctionErrors:
    """1D eigenfunction errors in the H1 seminorm and the L2 norm.

    Each requested discrete eigenfunction is rescaled to unit L2 norm
    and sign-aligned against the exact unit-L2 eigenfunction of the
    same rank before the error integrals are evaluated with an
    over-resolved (p+4)-point Gauss rule per element.
    """
    if spectrum.eigenvectors is None:
        raise ValueError("spectrum carries no eigenvectors")
    p, n_el, h = space.degree, space.n_elements, space.h
    n_dof = space.n_dof
    if spectrum.eigenvectors.shape[0] != n_dof:
        raise ValueError("eigenvector length does not match the space")
    for mode in modes:
        check_int("mode", mode, 1, spectrum.n)
    exact = ExactSpectrum(1)

    # basis values and gradients, (element, node, function)
    e = np.arange(n_el)
    nodes, weights = map_to_element(gauss_legendre(p + 4), e * h, (e + 1) * h)
    vals, grads = np.moveaxis(space.all_basis_ders((p + e)[:, None], nodes, 1), -2, 0)

    h1 = np.empty(len(modes))
    l2 = np.empty(len(modes))
    for k, mode in enumerate(modes):
        U_full = np.zeros(n_dof + 2)
        U_full[1:-1] = spectrum.eigenvectors[:, mode - 1]
        # coeff[i] holds the p + 1 coefficients active on element i
        coeff = sliding_window_view(U_full, p + 1)[:, :, None]
        u_ex, du_ex = exact.eigenfunction_1d(mode)
        u_q, du_q = u_ex(nodes), du_ex(nodes)

        uh = (vals @ coeff)[..., 0]
        norm2 = _element_sum(weights, uh * uh)
        inner = _element_sum(weights, uh * u_q)
        coeff = (1.0 if inner >= 0 else -1.0) / math.sqrt(norm2) * coeff

        du = (grads @ coeff)[..., 0] - du_q
        dv = (vals @ coeff)[..., 0] - u_q
        h1[k] = math.sqrt(_element_sum(weights, du * du))
        l2[k] = math.sqrt(_element_sum(weights, dv * dv))
    return FunctionErrors(tuple(modes), h1, l2)


def convergence_rates(h_values, errors):
    """Least-squares log-log convergence rate over a mesh sequence.

    Parameters
    ----------
    h_values, errors : array-like
        Mesh sizes (>= 3 of them, strictly decreasing) and the matching
        error values.  Errors at or below ``ERROR_FLOOR`` are
        machine-precision noise.  The fit uses the leading run of meshes
        whose error stays above the floor; once the sequence touches the
        floor, all later meshes are discarded (a noise value bouncing
        back above the floor on an even finer mesh carries no rate
        information).

    Returns
    -------
    float or None
        Fitted slope, or None when fewer than two meshes remain
        (rate undefined / saturated).
    """
    h = np.asarray(h_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.shape != e.shape or h.ndim != 1:
        raise ValueError("h_values and errors must be 1D arrays of equal length")
    if len(h) < 3:
        raise ValueError("need at least 3 meshes for a convergence rate")
    if not np.all(np.diff(h) < 0):
        raise ValueError("h_values must strictly decrease (coarsest mesh first)")
    above = np.nonzero(e <= ERROR_FLOOR)[0]
    stop = above[0] if len(above) else len(e)
    if stop < 2:
        return None
    slope = np.polyfit(np.log(h[:stop]), np.log(e[:stop]), 1)[0]
    return float(slope)


def condition_report(baseline: Spectrum, treated: Spectrum) -> ConditionReport:
    """Condition numbers of both spectra and the relative reduction.

    gamma = lambda_max / lambda_min per spectrum, rho their ratio, and
    the reduction percentage 100 * (1 - 1/rho).
    """
    out = []
    for s in (baseline, treated):
        lam = s.eigenvalues
        if lam[0] <= 0.0:
            raise ValueError(
                f"invalid spectrum: nonpositive eigenvalue {lam[0]:.3e}"
            )
        out.append((float(lam[0]), float(lam[-1])))
    (lmin, lmax), (tmin, tmax) = out
    gamma = lmax / lmin
    gamma_t = tmax / tmin
    rho = gamma / gamma_t
    return ConditionReport(lmin, lmax, tmin, tmax, gamma, gamma_t, rho,
                           100.0 * (1.0 - 1.0 / rho))


def outlier_metric(spectrum: Spectrum, exact: ExactSpectrum) -> OutlierMetric:
    """Compare the spectral tail against the bulk of the spectrum.

    The maximum relative eigenvalue error over the top ``TAIL_FRACTION``
    of modes is set against the maximum over the remaining modes; the
    tail is flagged when it exceeds ``FLAG_RATIO`` times the bulk.
    Requires at least 20 modes so the tail is nonempty and meaningful.
    """
    n = spectrum.n
    if n < 20:
        raise ValueError(f"outlier metric needs >= 20 modes, got {n}")
    rel = eigenvalue_errors(spectrum, exact).relative_errors
    k = math.ceil(TAIL_FRACTION * n)
    top = float(rel[n - k :].max())
    rest = float(rel[: n - k].max())
    return OutlierMetric(top, rest, top > FLAG_RATIO * rest)
