"""Gauss-Legendre and Gauss-Lobatto rules and their optimal blend weights.

A rule is a (nodes, weights) pair of arrays on [-1, 1], as ``leggauss``
returns it, nodes strictly increasing.  An m-point Gauss-Legendre rule
integrates polynomials up to degree 2m-1 exactly, an m-point Gauss-Lobatto
rule up to degree 2m-3.  The blend of the two (p+1)-point rules

    Q = eta * Q_gauss + (1 - eta) * Q_lobatto

is fixed by the one number eta: 1 is plain Gauss, and ``optimal_blending``
gives the exact weight that cancels the theta^(2p+2) term of the discrete
dispersion relation, so lambda h^2 = theta^2 + O(theta^(2p+4)) (Hughes,
Reali & Sangalli, CMAME 197, 2008).  eta reaches -105103/2,
so the two sums are never formed: ``assembly`` integrates exactly and
adds the closed-form Lobatto error on t^(2p).

Nodes are computed by Newton iteration on the Legendre polynomial (or
its derivative) from trigonometric initial guesses; only one half is
iterated and the other half is mirrored, so rules are symmetric exactly.
"""

from fractions import Fraction

import numpy as np

from .errors import NumericError, check_int

__all__ = [
    "gauss_legendre",
    "gauss_lobatto",
    "optimal_blending",
    "map_to_element",
]

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100
_RESIDUAL_TOL = 1e-14

#: Dispersion-optimal Gauss weight eta per degree; the Lobatto weight is 1 - eta.
_OPTIMAL_ETA = {
    1: Fraction(1, 2),
    2: Fraction(1, 3),
    3: Fraction(-3, 2),
    4: Fraction(-79, 5),
    5: Fraction(-174, 1),
    6: Fraction(-91177, 35),
    7: Fraction(-105103, 2),
}


def _legendre_pair(n: int, x: float) -> tuple[float, float]:
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p0, p1 = 1.0, x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, p0


def _legendre_deriv(n: int, x: float) -> float:
    pn, pm1 = _legendre_pair(n, x)
    return n * (pm1 - x * pn) / (1.0 - x * x)


def _newton(f_and_fp, x0: float) -> float:
    x = x0
    for _ in range(_NEWTON_MAXIT):
        f, fp = f_and_fp(x)
        dx = f / fp
        x -= dx
        if abs(dx) < _NEWTON_TOL:
            break
    else:
        raise NumericError(f"root iteration did not converge from x0 = {x0}")
    f, fp = f_and_fp(x)
    # residual measured in root space; |f| itself is not scale free
    if abs(f / fp) > _RESIDUAL_TOL:
        raise NumericError(f"root residual {abs(f / fp):.3e} above tolerance")
    return x


def _mirror(pos_desc: list[float], has_zero: bool) -> np.ndarray:
    """Ascending node array from the positive half, symmetric by construction."""
    pos = np.array(sorted(pos_desc))
    mid = [0.0] if has_zero else []
    return np.concatenate([-pos[::-1], mid, pos])


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre (nodes, weights) on [-1, 1], exact to degree 2m - 1.

    Works at least up to m = 64; raises NumericError if the root
    iteration fails to meet its residual tolerance.
    """
    check_int("m", m, 1)

    def f_and_fp(x):
        pn, _ = _legendre_pair(m, x)
        return pn, _legendre_deriv(m, x)

    pos = []
    for i in range(m // 2):
        # classical asymptotic guess for the i-th largest root
        x0 = np.cos(np.pi * (4 * i + 3) / (4 * m + 2))
        pos.append(_newton(f_and_fp, x0))
    nodes = _mirror(pos, has_zero=(m % 2 == 1))

    half = []
    for x in nodes[: (m + 1) // 2]:
        dp = _legendre_deriv(m, x)
        half.append(2.0 / ((1.0 - x * x) * dp * dp))
    weights = np.concatenate([half, half[: m // 2][::-1]])
    return nodes, np.asarray(weights)


def gauss_lobatto(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Lobatto (nodes, weights) on [-1, 1], exact to degree 2m - 3.

    Includes both endpoints; interior nodes are the roots of P'_{m-1}.
    """
    check_int("m", m, 2)
    nm1 = m - 1
    w_end = 2.0 / (m * nm1)

    def f_and_fp(x):
        pn, _ = _legendre_pair(nm1, x)
        dp = _legendre_deriv(nm1, x)
        d2p = (2.0 * x * dp - nm1 * (nm1 + 1) * pn) / (1.0 - x * x)
        return dp, d2p

    n_int = m - 2
    pos = []
    for i in range(n_int // 2):
        # interior extrema of P_{m-1} sit close to the Chebyshev-Lobatto points
        x0 = np.cos(np.pi * (i + 1) / nm1)
        pos.append(_newton(f_and_fp, x0))
    interior = _mirror(pos, has_zero=(n_int % 2 == 1))

    nodes = np.concatenate([[-1.0], interior, [1.0]])
    half = [w_end]
    for x in nodes[1 : (m + 1) // 2]:
        pn, _ = _legendre_pair(nm1, x)
        half.append(2.0 / (m * nm1 * pn * pn))
    weights = np.concatenate([half, half[: m // 2][::-1]])
    return nodes, np.asarray(weights)


def optimal_blending(degree: int) -> Fraction:
    """Exact dispersion-optimal Gauss weight eta for a given degree (1..7)."""
    check_int("degree", degree, 1, 7)
    return _OPTIMAL_ETA[degree]


def map_to_element(rule, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Map a (nodes, weights) rule from [-1, 1] onto elements [a, b] (a < b).

    ``a`` and ``b`` are scalars or equal-length arrays of endpoints; for
    arrays, row e of the returned nodes and weights belongs to element e.
    """
    nodes, weights = rule
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all(b > a):
        raise ValueError(f"degenerate element [{a}, {b}]")
    mid = (0.5 * (a + b))[..., None]
    scale = (0.5 * (b - a))[..., None]
    return mid + scale * nodes, scale * weights
