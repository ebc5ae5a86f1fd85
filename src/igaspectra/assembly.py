"""1D stiffness/mass assembly with blended quadrature and boundary penalty.

For the Dirichlet Laplacian on [0, 1] discretised by the n_dof interior
functions of a ``KnotVector``, K[i, j] = Q(phi_i' phi_j') and
M[i, j] = Q(phi_i phi_j), where Q = eta Q_gauss + (1 - eta) Q_lobatto
blends the (p+1)-point rules, eta = 1 being plain Gauss.  Both rules
integrate K exactly and Gauss M; Lobatto errs by E_p on t^(2p) only, so
the blend adds (1-eta) E_p (h/2)^(2p+1) / (p!)^2 (D^p N_a)(D^p N_b) to M
per element.  The penalty adds, per level l = 1 .. floor((p - 1) / 2),
pi^2 h^(6l-3) d_l d_l^T to K and h^(6l-1) d_l d_l^T to M, d_l the 2l-th
derivatives at each end: it only touches the (p-1) x (p-1) corner
blocks and pushes the spurious outlier modes out of the spectrum.

Every entry is its exact value rounded once.  On unit elements every
term is an integer band sum over one common denominator; on n elements
of size 1/n the pair is n K_1 + pi^2 sum_l n^(3-2l) d_l d_l^T and
M_1 / n + sum_l n^(1-2l) d_l d_l^T.  Its few scalar weights (pi^2 to 64
digits) go over one denominator too, so each entry is one integer over
one integer, rounded correctly by Python's ``int / int``.  So each
interior diagonal holds one value, the cardinal stencil, and the pair
equals its mirror bit for bit.  The residual of each rounding, rounded
once too, goes into the band ``low`` (Dekker, Numer. Math. 18, 1971):
data + low holds each entry to about 2^-106 relative, which the
eigenvalue polish reads.  The exact integer work is O(p^3) once per
degree; scaling, rounding and filling the bands cost O(p^2 + n p).
"""

import functools
import math
from fractions import Fraction

import numpy as np

from .bspline import KnotVector, _element_pieces, _piece_rows, boundary_derivatives
from .errors import ConfigurationError, check_int
from .quadrature import map_to_element

__all__ = ["SymBandMatrix", "assemble_1d", "assemble_1d_reference_gauss"]

# not called here: perfbench/tracer.py wraps both as assembly.<name> (ROADMAP item 5)
boundary_derivatives, map_to_element = boundary_derivatives, map_to_element

#: pi^2 to 64 significant digits, far below the half ulp a rounding needs.
_PI2 = Fraction("9.869604401089358618834490999876151135313699407240790626413349376")


class SymBandMatrix:
    """Symmetric banded matrix, lower-band storage.

    ``data[k, i]`` holds entry (i + k, i) for diagonal offset
    k = 0..bandwidth; entries beyond the band are identically zero.
    ``low`` holds in the same layout the rounding residual of each entry,
    zero unless given: data + low carries about 106 bits of each entry of
    an exact matrix, which only the eigenvalue polish reads.
    """

    def __init__(self, n: int, bandwidth: int, data: np.ndarray | None = None,
                 low: np.ndarray | None = None):
        check_int("n", n, 1)
        check_int("bandwidth", bandwidth, 0)
        self.n = n
        self.bandwidth = bandwidth
        if data is None:
            data = np.zeros((bandwidth + 1, n))
        if low is None:
            low = np.zeros(data.shape)
        if data.shape != (bandwidth + 1, n) or low.shape != data.shape:
            raise ConfigurationError("band data shape mismatch")
        self.data, self.low = data, low

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


@functools.cache
def _unit_bands(p: int, n: int) -> tuple[np.ndarray, int]:
    """Exact integer lower bands of n unit elements (integer knots), and
    their common denominator L S^2, L = lcm(1..2p+1).

    Integrates the integer basis pieces of ``bspline._element_pieces``, S
    their common scale, against an integer Hilbert table times L, and
    scales the other products by L to match.  Returns the band sums
    (p+1, n + p - 2) of the element stiffness, mass and blend factor
    (D^p N_a)(D^p N_b) / (p!)^2, then of each penalty level's d_l d_l^T
    at both ends.  Beyond 2p + 1 elements the elements between the p
    boundary ones at each end repeat the cardinal element's tables.
    """
    pieces, scale = _element_pieces(p, n)
    j = np.arange(p + 1)
    lcm = math.lcm(*range(1, 2 * p + 2))
    # the integrals of t^(i+j) over [0, 1], times L
    hilbert = (lcm // (j[:, None] + j + 1)).astype(object)
    tables = []
    for e, c in enumerate(pieces):
        grad = c[:, 1:] * j[1:]
        # the 2l-th derivatives at x = 0 are (2l)! c[:, 2l]
        ends = [math.factorial(2 * level) * c[:, 2 * level] * (e == 0)
                for level in range(1, (p - 1) // 2 + 1)]
        tables.append([grad @ hilbert[:p, :p] @ grad.T, c @ hilbert @ c.T,
                       lcm * np.outer(c[:, p], c[:, p])] + [lcm * np.outer(d, d) for d in ends])
    tables = np.array(tables, dtype=object)
    tables[-1, 3:] = tables[-1, 3:] + tables[0, 3:, ::-1, ::-1]  # x = 1 mirrors x = 0
    tables = tables[_piece_rows(p, n, np.arange(n))]
    n_dof = n + p - 2
    sums = np.zeros((tables.shape[1], p + 1, n_dof), dtype=object)
    # local (la, lb) of element e is entry (e+la-1, e+lb-1)
    for la in range(p + 1):
        for lb in range(la + 1):
            lo = max(0, 1 - lb)
            hi = max(lo, min(n, n_dof + 1 - la))
            sums[:, la - lb, lo + lb - 1 : hi + lb - 1] += tables[lo:hi, :, la, lb].T
    return sums, lcm * scale**2


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
        Stiffness and mass, both exactly symmetric and persymmetric with
        bandwidth p: ``data`` each exact entry rounded once, ``low`` the
        rounding residual, rounded once.
    """
    p, n, n_dof = int(space.degree), int(space.n_elements), int(space.n_dof)
    # beyond 3p + 1 elements the columns past 2p are those of 3p + 1 elements
    # shifted right, and the columns between hold column 2p - 1, the stencil
    mesh = min(n, 3 * p + 1)
    sums, unit = _unit_bands(p, mesh)
    K, M = SymBandMatrix(n_dof, p), SymBandMatrix(n_dof, p)
    # the weights of the sums: stiffness, mass, blend, then each penalty level
    pen = [Fraction(n) ** (1 - 2 * level) if penalty else 0 for level in range(1, len(sums) - 2)]
    blend = (1 - Fraction(eta)) * _lobatto_defect(p) / (2 ** (2 * p + 1) * n)
    for A, weights in ((K, [n, 0, 0] + [_PI2 * n * n * w for w in pen]),
                       (M, [0, Fraction(1, n), blend] + pen)):
        for out, band in zip((A.data, A.low), _rounded(sums, weights, unit)):
            out[:, : 2 * p] = band[:, : 2 * p]
            out[:, 2 * p : 2 * p + n - mesh] = band[:, 2 * p - 1 : 2 * p]
            out[:, 2 * p + n - mesh :] = band[:, 2 * p :]
    return K, M


def _rounded(sums, weights, unit) -> np.ndarray:
    """The band sum(w s) / unit of the integer ``sums``, as its double hi and
    the residual lo, both rounded once: over one denominator D each entry is
    one int / int N / D, and with hi = a / b, lo = (N b - a D) / (D b)."""
    den = math.lcm(*(w.denominator for w in weights))
    # zero weights form nothing
    num = sum(s * int(w * den) for w, s in zip(weights, sums) if w)
    den *= unit
    hi = (num / den).astype(float)
    a, b = np.frompyfunc(float.as_integer_ratio, 1, 2)(hi)
    return np.array([hi, ((num * b - a * den) / (den * b)).astype(float)])


def assemble_1d_reference_gauss(space: KnotVector, penalty: bool = False
                                ) -> tuple[SymBandMatrix, SymBandMatrix]:
    """Assembly under the full (p+1)-point Gauss-Legendre baseline rule."""
    return assemble_1d(space, 1, penalty)
