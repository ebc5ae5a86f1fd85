"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths it is meant to
check: spline values come from the textbook two-term recursion in exact
rational arithmetic, and reference matrices are accumulated densely
with numpy's own Gauss nodes.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from igaspectra.bspline import boundary_derivatives, eval_basis
from igaspectra.quadrature import BlendedRule


def open_uniform_knots(degree, n_elements):
    """Exact rational open uniform knot vector on [0, 1]."""
    breaks = [Fraction(i, n_elements) for i in range(n_elements + 1)]
    return [Fraction(0)] * degree + breaks + [Fraction(1)] * degree


def _indicator(knots, i, x):
    # half open spans, except that x = 1 belongs to the last nonempty span
    if knots[i] <= x < knots[i + 1]:
        return Fraction(1)
    if x == knots[-1] and knots[i] < x and knots[i + 1] == x:
        return Fraction(1)
    return Fraction(0)


def bspline_value(knots, i, degree, x):
    """N_{i,degree}(x) by the two-term recursion, 0/0 terms dropped."""
    if degree == 0:
        return _indicator(knots, i, x)
    out = Fraction(0)
    d1 = knots[i + degree] - knots[i]
    if d1 != 0:
        out += (x - knots[i]) / d1 * bspline_value(knots, i, degree - 1, x)
    d2 = knots[i + degree + 1] - knots[i + 1]
    if d2 != 0:
        out += (knots[i + degree + 1] - x) / d2 * bspline_value(knots, i + 1, degree - 1, x)
    return out


def bspline_derivative(knots, i, degree, x, order):
    """order-th derivative of N_{i,degree} at x, exact rational."""
    if order == 0:
        return bspline_value(knots, i, degree, x)
    out = Fraction(0)
    d1 = knots[i + degree] - knots[i]
    if d1 != 0:
        out += Fraction(degree) / d1 * bspline_derivative(knots, i, degree - 1, x, order - 1)
    d2 = knots[i + degree + 1] - knots[i + 1]
    if d2 != 0:
        out -= Fraction(degree) / d2 * bspline_derivative(knots, i + 1, degree - 1, x, order - 1)
    return out


def full_basis_exact(degree, n_elements, x, order=0):
    """All n + p basis derivative values at rational x, as Fractions."""
    knots = open_uniform_knots(degree, n_elements)
    return [bspline_derivative(knots, i, degree, x, order)
            for i in range(n_elements + degree)]


def dense_pair_overintegrated(space, points=20):
    """Dense (K, M) for the interior basis via an over-resolved rule.

    Accumulates full dense matrices from per-point basis evaluations and
    numpy's Gauss-Legendre nodes; shares no quadrature, element-loop or
    band-storage code with the assembly under test.  With 20 points the
    rule is exact for every integrand up to degree 39, far beyond the
    2p <= 14 the mass matrix needs.
    """
    p, n, h = space.degree, space.n_elements, space.h
    n_dof = space.n_dof
    xg, wg = np.polynomial.legendre.leggauss(points)
    K = np.zeros((n_dof, n_dof))
    M = np.zeros((n_dof, n_dof))
    for e in range(n):
        mid = (e + 0.5) * h
        half = 0.5 * h
        for xi, wi in zip(mid + half * xg, half * wg):
            vals = np.zeros(n + p)
            grads = np.zeros(n + p)
            for idx, v in eval_basis(space, float(xi), 0):
                vals[idx] = v
            for idx, v in eval_basis(space, float(xi), 1):
                grads[idx] = v
            vi, gi = vals[1:-1], grads[1:-1]
            M += wi * np.outer(vi, vi)
            K += wi * np.outer(gi, gi)
    return K, M


def band_pair_per_entry(space, rule, penalty):
    """Band data of (K, M) by the scalar element-by-element assembly.

    The original loop structure: one basis call per quadrature point,
    one element matrix at a time, one band entry at a time, then the
    endpoint penalty entry by entry.  The vectorized assembly keeps the
    same floating-point operations in the same order, so it must
    reproduce these bytes exactly.
    """
    kv = space.knot_vector
    p, n, h, n_dof = space.degree, space.n_elements, space.h, space.n_dof
    parts = rule.parts() if isinstance(rule, BlendedRule) else [(rule, 1.0)]
    K = np.zeros((p + 1, n_dof))
    M = np.zeros((p + 1, n_dof))
    for e in range(n):
        a, b = e * h, (e + 1) * h
        mid, scale = 0.5 * (a + b), 0.5 * (b - a)
        k_loc = np.zeros((p + 1, p + 1))
        m_loc = np.zeros((p + 1, p + 1))
        for qrule, coeff in parts:
            for x, w in zip(mid + scale * qrule.nodes, coeff * (scale * qrule.weights)):
                ders = kv.all_basis_ders(p + e, x, 1)
                m_loc += w * np.outer(ders[0], ders[0])
                k_loc += w * np.outer(ders[1], ders[1])
        for la in range(p + 1):
            for lb in range(la + 1):
                gi, gj = e + la - 1, e + lb - 1
                if gj >= 0 and gi < n_dof:
                    K[la - lb, gj] += k_loc[la, lb]
                    M[la - lb, gj] += m_loc[la, lb]
    if penalty.enabled:
        pi2 = math.pi * math.pi
        for level in range(1, penalty.alpha + 1):
            ca = penalty.eta_a[level - 1] * pi2 * h ** (6 * level - 3)
            cb = penalty.eta_b[level - 1] * h ** (6 * level - 1)
            for vec in boundary_derivatives(space, 2 * level):
                nz = np.flatnonzero(vec)
                for i in nz:
                    for j in nz[nz <= i]:
                        K[i - j, j] += ca * vec[i] * vec[j]
                        M[i - j, j] += cb * vec[i] * vec[j]
    return K, M


def smallest_sums_of_squares(dim, count):
    """The ``count`` smallest sums j1^2 + .. + jd^2 over jk >= 1, ascending.

    Bisects on an exact lattice count (the last index counted with
    ``math.isqrt``) for the smallest bound T holding ``count`` tuples,
    then lists every tuple with sum <= T; no index box is sized up front.
    """
    def how_many(t):
        total = 0
        for head in itertools.product(range(1, math.isqrt(t) + 1), repeat=dim - 1):
            rest = t - sum(j * j for j in head)
            if rest < 1:
                continue
            total += math.isqrt(rest)
        return total

    lo, hi = dim, dim
    while how_many(hi) < count:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if how_many(mid) >= count:
            hi = mid
        else:
            lo = mid + 1
    sums = sorted(s for combo in itertools.product(range(1, math.isqrt(lo) + 1),
                                                  repeat=dim)
                  if (s := sum(j * j for j in combo)) <= lo)
    return sums[:count]
