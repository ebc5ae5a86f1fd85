"""1D stiffness/mass assembly with blended quadrature and boundary penalty.

For the Dirichlet Laplacian on [0, 1] discretised by the interior
B-spline basis, this module builds the symmetric banded pair (K, M):

    K[i, j] = Q( phi_i' phi_j' ) + penalty,   M[i, j] = Q( phi_i phi_j ) + penalty,

where Q is the requested quadrature rule applied element by element.
The blend of the (p+1)-point Gauss and Lobatto rules is one Gauss pass
plus, per element, M += (1-eta) E_p (h/2)^(2p+1) / (p!)^2 (D^p N_a)(D^p N_b):
Gauss is exact on the mass, Lobatto errs by E_p on its t^(2p) term only.
The penalty adds, for each level l = 1 .. alpha
with alpha = floor((p - 1) / 2), the endpoint terms

    K += pi^2 * h^(6l-3) * [ w^(2l)(0) v^(2l)(0) + w^(2l)(1) v^(2l)(1) ]
    M +=        h^(6l-1) * [ same ]

which only touch the (p-1) x (p-1) corner blocks and push the spurious
outlier modes out of the discrete spectrum.
"""

import math
from fractions import Fraction

import numpy as np

from .bspline import BSplineSpace, boundary_derivatives
from .errors import ConfigurationError
from .quadrature import BlendedRule, map_to_element

__all__ = [
    "SymBandMatrix",
    "assemble_1d",
    "assemble_1d_reference_gauss",
]


def penalty_order(degree: int) -> int:
    """Number of penalty levels alpha = floor((degree - 1) / 2)."""
    return (degree - 1) // 2


class SymBandMatrix:
    """Symmetric banded matrix, lower-band storage.

    ``data[k, i]`` holds entry (i + k, i) for diagonal offset
    k = 0..bandwidth; entries beyond the band are identically zero.
    """

    def __init__(self, n: int, bandwidth: int, data: np.ndarray | None = None):
        if n < 1 or bandwidth < 0:
            raise ConfigurationError(f"invalid band shape n={n}, bandwidth={bandwidth}")
        self.n = n
        self.bandwidth = bandwidth
        if data is None:
            data = np.zeros((bandwidth + 1, n))
        if data.shape != (bandwidth + 1, n):
            raise ConfigurationError("band data shape mismatch")
        self.data = data

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for k in range(min(self.bandwidth, self.n - 1) + 1):
            vals = self.data[k, : self.n - k]
            idx = np.arange(self.n - k)
            a[idx + k, idx] = vals
            a[idx, idx + k] = vals
        return a


def _lobatto_defect(p: int) -> Fraction:
    """E_p = Q(t^(2p)) - 2/(2p+1) of the (p+1)-point Lobatto rule (A&S 25.4.32)."""
    return Fraction((p + 1) * p**3 * 2 ** (2 * p + 1) * math.factorial(p - 1) ** 4,
                    (2 * p + 1) * math.factorial(2 * p) ** 2)


def assemble_1d(space: BSplineSpace, rule, penalty: bool = False
                ) -> tuple[SymBandMatrix, SymBandMatrix]:
    """Assemble the 1D stiffness and mass pair (K, M).

    Parameters
    ----------
    space : BSplineSpace
        Interior spline space of degree p on n uniform elements.
    rule : QuadratureRule or BlendedRule
        A plain rule needs at least p + 1 points; a blended rule must pair
        the (p+1)-point Gauss and Lobatto rules.
    penalty : bool
        Add the boundary penalty levels l = 1..alpha; False leaves the
        corner blocks untouched.

    Returns
    -------
    (SymBandMatrix, SymBandMatrix)
        Stiffness and mass, both exactly symmetric with bandwidth p.
    """
    kv = space.knot_vector
    p, n, h = space.degree, space.n_elements, space.h
    n_dof = space.n_dof

    blended = isinstance(rule, BlendedRule)
    qrule = rule.rule1 if blended else rule
    if blended and [(r.family, r.m) for r in (rule.rule1, rule.rule2)] != [
            ("gauss", p + 1), ("lobatto", p + 1)]:
        raise ConfigurationError(f"blend must pair the {p + 1}-point Gauss and Lobatto rules")
    if qrule.m < p + 1:
        raise ConfigurationError(f"{qrule.family} rule with {qrule.m} points is "
                                 f"insufficient for degree {p}; need at least {p + 1}")

    K = SymBandMatrix(n_dof, p)
    M = SymBandMatrix(n_dof, p)

    # every element at once, one quadrature node at a time
    e = np.arange(n)
    spans = kv.span_of_element(e)
    if blended:  # D^p N is constant per element; the copy frees the full table
        dp = kv.all_basis_ders(spans, (e + 0.5) * h, p)[:, p].copy()
    k_loc = np.zeros((n, p + 1, p + 1))
    m_loc = np.zeros((n, p + 1, p + 1))
    elem = map_to_element(qrule, e * h, (e + 1) * h)
    for q in range(qrule.m):
        ders = kv.all_basis_ders(spans, elem.nodes[:, q], 1)
        vals, grads = ders[:, 0], ders[:, 1]
        w = elem.weights[:, q, None, None]
        m_loc += w * (vals[:, :, None] * vals[:, None, :])
        k_loc += w * (grads[:, :, None] * grads[:, None, :])
    if blended:
        # K needs no term: both rules are exact to degree 2p-1 > 2p-2
        coeff = (1 - Fraction(rule.eta)) * _lobatto_defect(p) / math.factorial(p) ** 2
        m_loc += float(coeff) * (0.5 * h) ** (2 * p + 1) * (dp[:, :, None] * dp[:, None, :])
    # local (la, lb) of element e is entry (e+la-1, e+lb-1); descending la
    # adds each band entry's contributions in element order
    for la in range(p, -1, -1):
        for lb in range(la, -1, -1):
            lo = max(0, 1 - lb)
            hi = max(lo, min(n, n_dof + 1 - la))
            K.data[la - lb, lo + lb - 1 : hi + lb - 1] += k_loc[lo:hi, la, lb]
            M.data[la - lb, lo + lb - 1 : hi + lb - 1] += m_loc[lo:hi, la, lb]

    if penalty:
        pi2 = math.pi * math.pi
        for level in range(1, penalty_order(p) + 1):
            d0, d1 = boundary_derivatives(space, 2 * level)
            ca = pi2 * h ** (6 * level - 3)
            cb = h ** (6 * level - 1)
            for vec in (d0, d1):
                nz = np.flatnonzero(vec)
                i, j = np.meshgrid(nz, nz, indexing="ij")
                i, j = i[j <= i], j[j <= i]
                K.data[i - j, j] += ca * vec[i] * vec[j]
                M.data[i - j, j] += cb * vec[i] * vec[j]

    return K, M


def assemble_1d_reference_gauss(space: BSplineSpace, penalty: bool = False
                                ) -> tuple[SymBandMatrix, SymBandMatrix]:
    """Assembly under the full (p+1)-point Gauss-Legendre baseline rule."""
    from .quadrature import gauss_legendre

    return assemble_1d(space, gauss_legendre(space.degree + 1), penalty)
