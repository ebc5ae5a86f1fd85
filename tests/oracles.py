"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths it is meant to
check: spline values come from the textbook two-term recursion in exact
rational arithmetic, reference matrices are accumulated densely with
numpy's own Gauss nodes, the blended pencil is summed as defined at 40
digits in mpmath, and multi-dimensional operators are built as sparse
Kronecker products and solved densely.  Some entries keep an earlier,
slower form of a production routine that the current one must
reproduce bit for bit.
"""

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

    The original loop structure for a plain rule: one basis call per
    quadrature point, one element matrix at a time, one band entry at a
    time, then the endpoint penalty entry by entry.  The vectorized
    assembly keeps the same floating-point operations in the same order,
    so it must reproduce these bytes exactly.
    """
    kv = space.knot_vector
    p, n, h, n_dof = space.degree, space.n_elements, space.h, space.n_dof
    K = np.zeros((p + 1, n_dof))
    M = np.zeros((p + 1, n_dof))
    for e in range(n):
        a, b = e * h, (e + 1) * h
        mid, scale = 0.5 * (a + b), 0.5 * (b - a)
        k_loc = np.zeros((p + 1, p + 1))
        m_loc = np.zeros((p + 1, p + 1))
        for x, w in zip(mid + scale * rule.nodes, scale * rule.weights):
            ders = kv.all_basis_ders(p + e, x, 1)
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
        gauss = _mp_rule(gauss_legendre(m).nodes, lambda x: leg(m, x),
                         lambda x: 2 * (1 - x * x) / (m * leg(m - 1, x)) ** 2)
        w_end = mpmath.mpf(2) / (m * (m - 1))
        lobatto = ([(mpmath.mpf(-1), w_end)]
                   + _mp_rule(gauss_lobatto(m).nodes[1:-1],
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


def rq_polish_dense(Kd, Md, lam, vec):
    """Re-evaluate eigenvalues as extended-precision Rayleigh quotients.

    The dense form: full longdouble products K @ V and M @ V at O(n^3),
    then the column-wise inner products.  Returns (lam, vec) re-sorted
    together, since polished values in a near-degenerate cluster may
    swap order; unpolished if some v^T M v is not positive.
    """
    V = vec.astype(np.longdouble)
    num = np.einsum("ij,ij->j", V, Kd.astype(np.longdouble) @ V)
    den = np.einsum("ij,ij->j", V, Md.astype(np.longdouble) @ V)
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
    kv = space.knot_vector
    p, n_el, h = space.degree, space.n_elements, space.h
    n_dof = space.n_dof
    exact = ExactSpectrum(1)
    rule = gauss_legendre(p + 4)
    e = np.arange(n_el)
    elem = map_to_element(rule, e * h, (e + 1) * h)
    vals = np.empty((n_el, rule.m, p + 1))
    grads = np.empty((n_el, rule.m, p + 1))
    for q in range(rule.m):
        ders = kv.all_basis_ders(kv.span_of_element(e), elem.nodes[:, q], 1)
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
            norm2 += np.dot(elem.weights[i], uh * uh)
            inner += np.dot(elem.weights[i], uh * u_ex(elem.nodes[i]))
        scale = (1.0 if inner >= 0 else -1.0) / math.sqrt(norm2)

        e_h1 = 0.0
        e_l2 = 0.0
        for i in range(n_el):
            coeff = scale * U_full[i : i + p + 1]
            du = grads[i] @ coeff - du_ex(elem.nodes[i])
            dv = vals[i] @ coeff - u_ex(elem.nodes[i])
            e_h1 += np.dot(elem.weights[i], du * du)
            e_l2 += np.dot(elem.weights[i], dv * dv)
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
