"""1D stiffness/mass assembly with blended quadrature and boundary penalty.

For the Dirichlet Laplacian on [0, 1] discretised by the n_dof interior
functions of a ``KnotVector``, this module builds the symmetric banded pair (K, M):

    K[i, j] = Q( phi_i' phi_j' ) + penalty,   M[i, j] = Q( phi_i phi_j ) + penalty,

where Q = eta Q_gauss + (1 - eta) Q_lobatto blends the (p+1)-point rules
element by element, eta = 1 being plain Gauss.  Every pencil is one Gauss
pass plus, per element, M += (1-eta) E_p (h/2)^(2p+1) / (p!)^2 (D^p N_a)(D^p N_b):
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

from .bspline import KnotVector, boundary_derivatives
from .errors import ConfigurationError, check_int
from .quadrature import gauss_legendre, map_to_element

__all__ = [
    "SymBandMatrix",
    "assemble_1d",
    "assemble_1d_reference_gauss",
]


class SymBandMatrix:
    """Symmetric banded matrix, lower-band storage.

    ``data[k, i]`` holds entry (i + k, i) for diagonal offset
    k = 0..bandwidth; entries beyond the band are identically zero.
    """

    def __init__(self, n: int, bandwidth: int, data: np.ndarray | None = None):
        check_int("n", n, 1)
        check_int("bandwidth", bandwidth, 0)
        self.n = n
        self.bandwidth = bandwidth
        if data is None:
            data = np.zeros((bandwidth + 1, n))
        if data.shape != (bandwidth + 1, n):
            raise ConfigurationError("band data shape mismatch")
        self.data = data

    def to_dense(self) -> np.ndarray:
        """The full symmetric n x n array."""
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


def assemble_1d(space: KnotVector, eta, penalty: bool = False
                ) -> tuple[SymBandMatrix, SymBandMatrix]:
    """Assemble the 1D stiffness and mass pair (K, M).

    Parameters
    ----------
    space : KnotVector
        Interior spline space of degree p on n uniform elements.
    eta : int or Fraction
        Gauss weight of the blend of the (p+1)-point Gauss and Lobatto
        rules: 1 is plain Gauss, ``optimal_blending(p)`` the optimal blend.
    penalty : bool
        Add the boundary penalty levels l = 1..alpha; False leaves the
        corner blocks untouched.

    Returns
    -------
    (SymBandMatrix, SymBandMatrix)
        Stiffness and mass, both exactly symmetric with bandwidth p.
    """
    p, n, h = space.degree, space.n_elements, space.h
    n_dof = space.n_dof

    K = SymBandMatrix(n_dof, p)
    M = SymBandMatrix(n_dof, p)

    # every element at once, one quadrature node at a time
    e = np.arange(n)
    spans = p + e  # knot span of each element
    # D^p N is constant per element; the copy frees the full table
    dp = space.all_basis_ders(spans, (e + 0.5) * h, p)[:, p].copy()
    k_loc = np.zeros((n, p + 1, p + 1))
    m_loc = np.zeros((n, p + 1, p + 1))
    nodes, weights = map_to_element(gauss_legendre(p + 1), e * h, (e + 1) * h)
    for q in range(p + 1):
        ders = space.all_basis_ders(spans, nodes[:, q], 1)
        vals, grads = ders[:, 0], ders[:, 1]
        w = weights[:, q, None, None]
        m_loc += w * (vals[:, :, None] * vals[:, None, :])
        k_loc += w * (grads[:, :, None] * grads[:, None, :])
    # K needs no term: both rules are exact to degree 2p-1 > 2p-2.  At
    # eta = 1 the coefficient is 0.0, and adding +-0.0 changes no bit of m_loc
    coeff = (1 - eta) * _lobatto_defect(p) / math.factorial(p) ** 2
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
        for level in range(1, (p - 1) // 2 + 1):
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


def assemble_1d_reference_gauss(space: KnotVector, penalty: bool = False
                                ) -> tuple[SymBandMatrix, SymBandMatrix]:
    """Assembly under the full (p+1)-point Gauss-Legendre baseline rule."""
    return assemble_1d(space, 1, penalty)
