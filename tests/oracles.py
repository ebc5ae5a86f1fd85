"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths it is meant to
check: spline values come from the textbook two-term recursion in exact
rational arithmetic, reference matrices are accumulated densely with
numpy's own Gauss nodes, the blended pencil is summed as defined at 40
digits in mpmath and exactly, term by term, in Fractions, and
multi-dimensional operators are built as sparse Kronecker products and
solved densely.  Some entries keep an earlier, slower form of a
production routine that the current one must reproduce bit for bit.
"""

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps

from igaspectra.analysis import ExactSpectrum, FunctionErrors
from igaspectra.bspline import boundary_derivatives, eval_basis
from igaspectra.errors import ConfigurationError, ResourceError
from igaspectra.quadrature import (_OPTIMAL_ETA, gauss_legendre, gauss_lobatto,
                                   map_to_element)

DEFAULT_SIZE_CAP = 20_000


def open_uniform_knots(degree, n_elements):
    """Exact rational open uniform knot vector on [0, 1], as a tuple."""
    breaks = tuple(Fraction(i, n_elements) for i in range(n_elements + 1))
    return (Fraction(0),) * degree + breaks + (Fraction(1),) * degree


def _indicator(knots, i, x):
    # half open spans, except that x = 1 belongs to the last nonempty span
    if knots[i] <= x < knots[i + 1]:
        return Fraction(1)
    if x == knots[-1] and knots[i] < x and knots[i + 1] == x:
        return Fraction(1)
    return Fraction(0)


# memoised: the recursions reach each (i, degree, x) many times.  They run on
# integer knots, whose tuple hashes far faster than one of Fractions.
@functools.lru_cache(maxsize=1 << 16)
def _value(knots, i, degree, x):
    """N_{i,degree}(x) by the two-term recursion, 0/0 terms dropped."""
    if degree == 0:
        return _indicator(knots, i, x)
    out = Fraction(0)
    d1 = knots[i + degree] - knots[i]
    if d1 != 0:
        out += (x - knots[i]) / d1 * _value(knots, i, degree - 1, x)
    d2 = knots[i + degree + 1] - knots[i + 1]
    if d2 != 0:
        out += (knots[i + degree + 1] - x) / d2 * _value(knots, i + 1, degree - 1, x)
    return out


@functools.lru_cache(maxsize=1 << 16)
def _derivative(knots, i, degree, x, order):
    if order == 0:
        return _value(knots, i, degree, x)
    out = Fraction(0)
    d1 = knots[i + degree] - knots[i]
    if d1 != 0:
        out += Fraction(degree) / d1 * _derivative(knots, i, degree - 1, x, order - 1)
    d2 = knots[i + degree + 1] - knots[i + 1]
    if d2 != 0:
        out -= Fraction(degree) / d2 * _derivative(knots, i + 1, degree - 1, x, order - 1)
    return out


def bspline_derivative(knots, i, degree, x, order):
    """order-th derivative of N_{i,degree} at x, exact rational.

    ``knots`` holds ints or Fractions.  The recursion runs on the integer
    knots s t, s their common denominator, at s x: N_{i,degree} is the
    same function of s x, so its order-th derivative is s^order times the
    one on the scaled knots.
    """
    s = math.lcm(*(t.denominator for t in knots))
    scaled = tuple(t.numerator * (s // t.denominator) for t in knots)
    return _derivative(scaled, i, degree, Fraction(x) * s, order) * s**order


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

    The original float64 loop for a plain rule, such as the Lobatto rule
    the assembly never applies: one basis call per quadrature point, one
    element matrix at a time, one band entry at a time, then the endpoint
    penalty entry by entry.
    """
    p, n, h, n_dof = space.degree, space.n_elements, space.h, space.n_dof
    nodes, weights = rule
    K = np.zeros((p + 1, n_dof))
    M = np.zeros((p + 1, n_dof))
    for e in range(n):
        a, b = e * h, (e + 1) * h
        mid, scale = 0.5 * (a + b), 0.5 * (b - a)
        k_loc = np.zeros((p + 1, p + 1))
        m_loc = np.zeros((p + 1, p + 1))
        for x, w in zip(mid + scale * nodes, scale * weights):
            ders = space.all_basis_ders(p + e, x, 1)
            m_loc += w * np.outer(ders[0], ders[0])
            k_loc += w * np.outer(ders[1], ders[1])
        for la in range(p + 1):
            for lb in range(la + 1):
                gi, gj = e + la - 1, e + lb - 1
                if gj >= 0 and gi < n_dof:
                    K[la - lb, gj] += k_loc[la, lb]
                    M[la - lb, gj] += m_loc[la, lb]
    if penalty:
        pi2 = math.pi * math.pi
        for level in range(1, (p - 1) // 2 + 1):
            ca = pi2 * h ** (6 * level - 3)
            cb = h ** (6 * level - 1)
            for vec in boundary_derivatives(space, 2 * level):
                nz = np.flatnonzero(vec)
                for i in nz:
                    for j in nz[nz <= i]:
                        K[i - j, j] += ca * vec[i] * vec[j]
                        M[i - j, j] += cb * vec[i] * vec[j]
    return K, M


@functools.cache
def _unit_element(window):
    """Exact data of the unit element [0, 1] of the 2p + 2 integer knots
    ``window``, window[p] = 0 and window[p + 1] = 1: the integrals over it
    of the products of the derivatives, and of the values, of its p + 1
    functions, and the products of their Taylor coefficients of order p.
    The Taylor coefficients at 0 come from ``bspline_derivative``."""
    p = len(window) // 2 - 1
    taylor = [[bspline_derivative(window, f, p, Fraction(0), j) / math.factorial(j)
               for j in range(p + 1)] for f in range(p + 1)]

    def gram(coeffs):
        # in integers over one denominator: int t^(i+j) = 1 / (i + j + 1)
        den = math.lcm(*(c.denominator for row in coeffs for c in row))
        ints = [[int(c * den) for c in row] for row in coeffs]
        size = 2 * len(coeffs[0]) - 1
        weight = [math.lcm(*range(1, size + 1)) // (k + 1) for k in range(size)]
        return [[Fraction(sum(a * b * weight[i + j] for i, a in enumerate(row)
                              for j, b in enumerate(col)), den * den * weight[0])
                 for col in ints] for row in ints]

    grads = [[j * c for j, c in enumerate(row)][1:] for row in taylor]
    return gram(grads), gram(taylor), [[a[p] * b[p] for b in taylor] for a in taylor]


def exact_pencil_parts(degree, n_elements):
    """The exact pencil on n uniform elements of [0, 1], part by part.

    Returns lower triangles, row r a list of r + 1 Fractions, of the
    stiffness, the mass (which Gauss integrates exactly), the blend's mass
    term (h/2)^(2p+1) / (p!)^2 (D^p N_a)(D^p N_b) without its (1 - eta) E_p
    factor, and per penalty level l the pair
    (h^(6l-3) D_l, h^(6l-1) D_l) with D_l = d0 d0^T + d1 d1^T of the 2l-th
    derivatives at x = 0 and 1, K's pi^2 left out.  The element terms are
    summed element by element on the integer knots of n unit elements,
    each from the ``_unit_element`` of its knots (the 2p + 2 around it,
    shifted to start the element at 0), by ``bspline_derivative``.  x -> n x
    maps that mesh onto [0, 1], so an element's mass is h times its unit
    integral, its stiffness 1/h times, and an r-th derivative is n^r times
    the one on the unit mesh.
    """
    p, n = degree, n_elements
    h = Fraction(1, n)
    knots = (0,) * p + tuple(range(n + 1)) + (n,) * p
    n_dof = n + p - 2

    def zeros():
        return [[Fraction(0)] * (r + 1) for r in range(n_dof)]

    K, M, B = zeros(), zeros(), zeros()
    for e in range(n):
        parts = _unit_element(tuple(t - e for t in knots[e : e + 2 * p + 2]))
        for f, g in itertools.product(range(p + 1), repeat=2):
            r, c = e + f - 1, e + g - 1
            if 0 <= c <= r < n_dof:
                for total, part in zip((K, M, B), parts):
                    total[r][c] += part[f][g]
    # (h/2)^(2p+1) / (p!)^2 (D^p N)^2 with D^p N = p! taylor[p] / h^p
    for total, scale in ((K, 1 / h), (M, h), (B, (h / 2) ** (2 * p + 1) / h ** (2 * p))):
        for row in total:
            row[:] = [scale * v for v in row]
    levels = []
    for level in range(1, (p - 1) // 2 + 1):
        D = zeros()
        for x in (0, n):
            d = [bspline_derivative(knots, i + 1, p, Fraction(x), 2 * level) * n ** (2 * level)
                 for i in range(n_dof)]
            nz = [i for i in range(n_dof) if d[i]]
            for r, c in itertools.product(nz, repeat=2):
                if c <= r:
                    D[r][c] += d[r] * d[c]
        levels.append(([[h ** (6 * level - 3) * v for v in row] for row in D],
                       [[h ** (6 * level - 1) * v for v in row] for row in D]))
    return K, M, B, levels


def exact_pencil(degree, n_elements, quadrature, penalty):
    """Dense exact K and M, lists of Fraction rows, of a named scheme.

    Sums the ``exact_pencil_parts`` with the weights of the scheme:
    ``optimal_blending_exact`` for "blended" (1 for "gauss") times
    ``lobatto_defect_exact`` on the blend term, and pi^2 to 80 digits on
    K's penalty levels.
    """
    K0, M0, B, levels = exact_pencil_parts(degree, n_elements)
    eta = optimal_blending_exact(degree) if quadrature == "blended" else 1
    with mpmath.workdps(80):
        pi2 = Fraction(str(mpmath.pi**2))
    on = levels if penalty else []
    pencil = []
    for terms in ([(1, K0)] + [(pi2, k) for k, _ in on],
                  [(1, M0), ((1 - eta) * lobatto_defect_exact(degree), B)]
                  + [(1, m) for _, m in on]):
        lower = [[sum(w * T[r][c] for w, T in terms) for c in range(r + 1)]
                 for r in range(len(K0))]
        pencil.append([[lower[max(r, c)][min(r, c)] for c in range(len(K0))]
                       for r in range(len(K0))])
    return tuple(pencil)


def _mp_rule(seeds, f, weight):
    """Nodes as roots of f refined from float seeds, with their weights."""
    nodes = [mpmath.findroot(f, (mpmath.mpf(x), mpmath.mpf(x) + 1e-9)) for x in seeds]
    return [(x, weight(x)) for x in nodes]


def _cox_de_boor_mp(t, mu, p, x):
    """Values and first derivatives of N_{mu-p..mu, p} at x in span mu.

    The textbook triangle, degree by degree, in mpf, with 0/0 terms
    dropped; the derivative comes from the degree p - 1 row.
    """
    def frac(num, den):
        return num / den if den else 0

    row = {mu: mpmath.mpf(1)}
    for k in range(1, p + 1):
        prev = row
        row = {i: frac(x - t[i], t[i + k] - t[i]) * prev.get(i, 0)
               + frac(t[i + k + 1] - x, t[i + k + 1] - t[i + 1]) * prev.get(i + 1, 0)
               for i in range(mu - k, mu + 1)}
    funcs = range(mu - p, mu + 1)
    ders = [frac(p, t[i + p] - t[i]) * prev.get(i, 0)
            - frac(p, t[i + p + 1] - t[i + 1]) * prev.get(i + 1, 0) for i in funcs]
    return [row[i] for i in funcs], ders


def blended_pair_mpmath(degree, n_elements, dps=40):
    """Dense (K, M) of the optimally blended pencil, without penalty.

    The blend eta * Q_gauss + (1 - eta) * Q_lobatto of the (p+1)-point
    rules applied literally, element by element, at ``dps`` digits: both
    rules are rebuilt in mpmath (nodes refined by ``findroot`` from the
    package's float rules), the basis comes from Cox-de Boor in mpf and
    eta is the exact tabulated fraction.  The blend cancels about five
    of the ``dps`` digits; the float64 rounding of the result is returned.
    """
    p, n, m = degree, n_elements, degree + 1
    n_dof = n + p - 2
    with mpmath.workdps(dps):
        leg = mpmath.legendre
        gauss = _mp_rule(gauss_legendre(m)[0], lambda x: leg(m, x),
                         lambda x: 2 * (1 - x * x) / (m * leg(m - 1, x)) ** 2)
        w_end = mpmath.mpf(2) / (m * (m - 1))
        lobatto = ([(mpmath.mpf(-1), w_end)]
                   + _mp_rule(gauss_lobatto(m)[0][1:-1],
                              lambda x: leg(m - 2, x) - x * leg(m - 1, x),
                              lambda x: w_end / leg(m - 1, x) ** 2)
                   + [(mpmath.mpf(1), w_end)])
        eta = mpmath.mpf(_OPTIMAL_ETA[p].numerator) / _OPTIMAL_ETA[p].denominator
        t = ([mpmath.mpf(0)] * p + [mpmath.mpf(i) / n for i in range(n + 1)]
             + [mpmath.mpf(1)] * p)
        K = [[mpmath.mpf(0)] * n_dof for _ in range(n_dof)]
        M = [[mpmath.mpf(0)] * n_dof for _ in range(n_dof)]
        for e in range(n):
            mid, half = (t[p + e] + t[p + e + 1]) / 2, (t[p + e + 1] - t[p + e]) / 2
            for coeff, rule in ((eta, gauss), (1 - eta, lobatto)):
                for xi, wi in rule:
                    vals, ders = _cox_de_boor_mp(t, p + e, p, mid + half * xi)
                    w = coeff * half * wi
                    for la in range(p + 1):
                        for lb in range(p + 1):
                            gi, gj = e + la - 1, e + lb - 1
                            if 0 <= gi < n_dof and 0 <= gj < n_dof:
                                M[gi][gj] += w * vals[la] * vals[lb]
                                K[gi][gj] += w * ders[la] * ders[lb]
        return (np.array([[float(v) for v in r] for r in K]),
                np.array([[float(v) for v in r] for r in M]))



def cardinal_bspline_at_integers(degree):
    """Exact values B(0), ..., B(degree + 1) of the cardinal B-spline of
    the given degree >= 1 (support [0, degree + 1]).

    Tabulated bottom-up from the hat by the two-term recursion
    B_d(j) = (j B_(d-1)(j) + (d + 1 - j) B_(d-1)(j - 1)) / d, so every
    degree costs one pass over d + 2 integers.
    """
    b = [Fraction(0), Fraction(1), Fraction(0)]
    for d in range(2, degree + 1):
        pad = [0] + b + [0]  # pad[j + 1] = B_(d-1)(j) for j = -1 .. d + 1
        b = [(j * pad[j + 1] + (d + 1 - j) * pad[j]) / d for j in range(d + 2)]
    return b


def lobatto_defect_exact(degree):
    """E_p = Q(t^(2p)) - 2/(2p+1) of the (p+1)-point Gauss-Lobatto rule.

    The nodes are the roots of the monic w = (t^2 - 1) P_p'(t) / lead.
    Writing t^(2p) = w q + r with deg r <= p, the rule is exact on r and
    zero on w q, and w is orthogonal to every degree below p - 1, so
    E_p = -int w q = -int w t^(p-1).  Legendre coefficients in Fractions.
    """
    prev, leg = [Fraction(1)], [Fraction(0), Fraction(1)]
    for n in range(1, degree):
        nxt = [Fraction(0)] + [Fraction(2 * n + 1, n + 1) * c for c in leg]
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(n, n + 1) * c
        prev, leg = leg, nxt
    dleg = [i * c for i, c in enumerate(leg)][1:]
    w = [-c for c in dleg] + [0, 0]
    for i, c in enumerate(dleg):
        w[i + 2] += c
    return -sum(c / w[-1] * Fraction(2, i + degree)
                for i, c in enumerate(w) if (i + degree - 1) % 2 == 0)


def blended_toeplitz_rows(degree, eta):
    """Exact interior rows (k_0..k_p, m_0..m_p) of the blended pencil, h = 1.

    Entry (i + k, i) of K is k_k = -B''(p + 1 + k) and of M is
    m_k = B(p + 1 + k), B the cardinal B-spline of degree 2p + 1; the
    Lobatto part of the blend adds (1 - eta) c_p (-1)^k C(2p, p + k) to
    m_k, the row of the 2p-th difference, with c_p = E_p / (2^(2p+1) (p!)^2).
    """
    p = degree
    mass = cardinal_bspline_at_integers(2 * p + 1)
    low = [0] + cardinal_bspline_at_integers(2 * p - 1) + [0, 0]  # low[j + 1] = B_(2p-1)(j)
    c_p = lobatto_defect_exact(p) / (2 ** (2 * p + 1) * math.factorial(p) ** 2)
    stiff = [-(low[p + 2 + k] - 2 * low[p + 1 + k] + low[p + k]) for k in range(p + 1)]
    blend = (1 - Fraction(eta)) * c_p
    return stiff, [mass[p + 1 + k] + blend * (-1) ** k * math.comb(2 * p, p + k)
                   for k in range(p + 1)]


def dispersion_series(degree, eta, terms):
    """[c_0, ..., c_(terms-1)] with lambda h^2 = sum_j c_j theta^(2j), exactly.

    The dispersion relation of the interior rows of the blended pencil
    (Hughes, Reali & Sangalli, CMAME 197, 2008; Calo, Deng & Puzyrev,
    JCAM 355, 2019): lambda h^2 is the quotient of the symbols
    a_0 + 2 sum_k a_k cos(k theta) of the rows of K and M, each a
    cosine series in t = theta^2, divided as power series.  The 2p-th
    difference row has the symbol (2 - 2 cos theta)^p = theta^(2p) + ...
    """
    def symbol(row):
        return [sum((1 if k == 0 else 2) * a * (-1) ** j
                    * Fraction(k ** (2 * j), math.factorial(2 * j))
                    for k, a in enumerate(row)) for j in range(terms)]

    num, den = map(symbol, blended_toeplitz_rows(degree, eta))
    quot = []
    for n in range(terms):
        quot.append((num[n] - sum(den[i] * quot[n - i] for i in range(1, n + 1))) / den[0])
    return quot


def optimal_blending_exact(degree):
    """The Gauss weight eta that cancels the theta^(2p+2) term of lambda h^2.

    That coefficient is affine in eta (the blend term starts at theta^(2p)),
    so two evaluations fix its root.
    """
    p = degree
    at_gauss = dispersion_series(p, 1, p + 2)[p + 1]
    slope = at_gauss - dispersion_series(p, 0, p + 2)[p + 1]  # per unit of eta
    return 1 - at_gauss / slope

def rq_polish_dense(Kd, Md, lam, vec, low=None):
    """Re-evaluate eigenvalues as extended-precision Rayleigh quotients.

    The dense form: full longdouble products K @ V and M @ V at O(n^3),
    then the column-wise inner products.  ``low``, a pair of dense
    residuals (K_lo, M_lo) of an exact pencil's entries, makes them the
    quotients of K + K_lo and M + M_lo.  Returns (lam, vec) re-sorted
    together, since polished values in a near-degenerate cluster may
    swap order; unpolished if some v^T M v is not positive.
    """
    V = vec.astype(np.longdouble)

    def form(A):
        return np.einsum("ij,ij->j", V, A.astype(np.longdouble) @ V)

    num, den = form(Kd), form(Md)
    if low is not None:
        num, den = num + form(low[0]), den + form(low[1])
    if np.any(den <= 0):
        return lam, vec
    polished = (num / den).astype(float)
    order = np.argsort(polished, kind="stable")
    return polished[order], vec[:, order]


def dense_generalized_eigenvalues(Kd, Md):
    """Ascending eigenvalues of a dense symmetric-definite pair.

    LAPACK's divide-and-conquer driver on the full matrices, each value
    then polished as the dense extended-precision Rayleigh quotient of
    its eigenvector (``rq_polish_dense``).
    """
    lam, vec = sla.eigh(Kd, Md, driver="gvd")
    return rq_polish_dense(Kd, Md, lam, vec)[0]


def generalized_eigenvalues_mpmath(Kd, Md, dps=40):
    """Ascending eigenvalues of the pair (Kd, Md), at ``dps`` digits.

    The entries, float64 arrays or the Fraction rows of ``exact_pencil``,
    are taken to ``dps`` digits; M = L L^T and the eigenvalues of
    L^-1 K L^-T (mpmath's Jacobi ``eigsy``) are computed at ``dps``
    digits and rounded to float64 at the end.
    """
    with mpmath.workdps(dps):
        inv = mpmath.inverse(mpmath.cholesky(mpmath.matrix(np.asarray(Md).tolist())))
        C = inv * mpmath.matrix(np.asarray(Kd).tolist()) * inv.T
        lam = mpmath.eigsy((C + C.T) / 2, eigvals_only=True)
        return np.sort([float(v) for v in lam])


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


@dataclass(frozen=True)
class TensorSystem:
    """Per-axis 1D (stiffness, mass) factors for a separable operator."""

    factors: tuple

    def __post_init__(self):
        if not 2 <= len(self.factors) <= 3:
            raise ConfigurationError(
                f"tensor systems support d in {{2, 3}}, got d = {len(self.factors)}"
            )

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def sizes(self) -> tuple:
        return tuple(K.n if hasattr(K, "n") else np.asarray(K).shape[0]
                     for K, _ in self.factors)


def _dense(a):
    return a.to_dense() if hasattr(a, "to_dense") else np.asarray(a, dtype=float)


def materialize(system: TensorSystem, size_cap: int = DEFAULT_SIZE_CAP):
    """Build the global sparse (K, M) pair by Kronecker products.

    Index flattening: the x index varies fastest, so a global index i
    encodes (i_x, i_y, i_z) as i = i_x + n_x * (i_y + n_y * i_z) and the
    last axis is the outermost Kronecker factor.  Refuses to build
    systems larger than ``size_cap`` rows.
    """
    total = int(np.prod(system.sizes))
    if total > size_cap:
        raise ResourceError(
            f"materialized system would have {total} rows (cap {size_cap}); "
            "use spectral_sum instead"
        )
    mats = [(sps.csr_matrix(_dense(K)), sps.csr_matrix(_dense(M)))
            for K, M in system.factors]

    def kron_chain(parts):
        # x fastest: reverse so axis 0 becomes the innermost factor
        out = parts[-1]
        for a in parts[-2::-1]:
            out = sps.kron(out, a, format="csr")
        return out

    d = system.dim
    M_glob = kron_chain([M for _, M in mats])
    K_glob = None
    for axis in range(d):
        parts = [mats[a][1] if a != axis else mats[a][0] for a in range(d)]
        term = kron_chain(parts)
        K_glob = term if K_glob is None else K_glob + term
    return K_glob.tocsr(), M_glob.tocsr()


def eigenfunction_errors_loop(spectrum, space, modes=(1,)):
    """1D eigenfunction errors, accumulated element by element.

    The loop form of ``igaspectra.eigenfunction_errors``: per mode, one
    matrix-vector product and two dot products per element, summed
    into Python floats in element order.  The batched form must
    reproduce these bytes exactly.
    """
    p, n_el, h = space.degree, space.n_elements, space.h
    n_dof = space.n_dof
    exact = ExactSpectrum(1)
    e = np.arange(n_el)
    nodes, weights = map_to_element(gauss_legendre(p + 4), e * h, (e + 1) * h)
    m = nodes.shape[1]
    vals = np.empty((n_el, m, p + 1))
    grads = np.empty((n_el, m, p + 1))
    for q in range(m):
        ders = space.all_basis_ders(p + e, nodes[:, q], 1)
        vals[:, q] = ders[:, 0]
        grads[:, q] = ders[:, 1]

    h1 = np.empty(len(modes))
    l2 = np.empty(len(modes))
    for k, mode in enumerate(modes):
        U_full = np.zeros(n_dof + 2)
        U_full[1:-1] = spectrum.eigenvectors[:, mode - 1]
        u_ex, du_ex = exact.eigenfunction_1d(mode)

        norm2 = 0.0
        inner = 0.0
        for i in range(n_el):
            coeff = U_full[i : i + p + 1]
            uh = vals[i] @ coeff
            norm2 += np.dot(weights[i], uh * uh)
            inner += np.dot(weights[i], uh * u_ex(nodes[i]))
        scale = (1.0 if inner >= 0 else -1.0) / math.sqrt(norm2)

        e_h1 = 0.0
        e_l2 = 0.0
        for i in range(n_el):
            coeff = scale * U_full[i : i + p + 1]
            du = grads[i] @ coeff - du_ex(nodes[i])
            dv = vals[i] @ coeff - u_ex(nodes[i])
            e_h1 += np.dot(weights[i], du * du)
            e_l2 += np.dot(weights[i], dv * dv)
        h1[k] = math.sqrt(e_h1)
        l2[k] = math.sqrt(e_l2)
    return FunctionErrors(tuple(modes), h1, l2)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def render_rows_reference(rows, fmt, rates=None, config=None):
    """CLI text from row dicts, formatted one field at a time.

    ``rows`` is a list of dicts sharing their keys in column order;
    ``rates`` (convergence only) maps a column to its fitted rate or
    "saturated" and adds the CSV rate row; JSON is the whole document,
    keys sorted.
    """
    if fmt == "json":
        doc = {"config": config, "rows": rows}
        if rates is not None:
            doc["rates"] = rates
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in header))
    if rates is not None:
        rate_row = {k: rates.get(k, "") for k in header}
        rate_row[header[0]] = "rate"
        rate_row["h"] = ""
        lines.append(",".join(_fmt(rate_row[k]) for k in header))
    return "\n".join(lines) + "\n"
