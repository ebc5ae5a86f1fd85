"""Univariate B-spline bases of maximal smoothness on [0, 1].

Open (clamped) uniform knot vectors only: degree p, n uniform elements,
C^{p-1} continuity across the interior knots.  ``KnotVector`` is the
space: its full basis has n + p functions; dropping the first and last
one enforces homogeneous Dirichlet conditions and leaves n_dof = n + p - 2.

On unit elements (integer knots) each basis piece is a polynomial that
Cox-de Boor gives in integers over one common scale; at most 2p + 1
elements differ.  Values and derivatives are Horner's rule on those
integers, and the assembly integrates them exactly.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from .errors import check_int

__all__ = ["KnotVector", "eval_basis", "boundary_derivatives"]


@functools.cache
def _element_pieces(p: int, n: int) -> tuple[np.ndarray, int]:
    """Integer coefficients of the basis pieces on n unit elements, and S.

    Cox-de Boor on polynomials in t = x - e on element e; degree k divides
    by knot differences of at most k, so scaled by lcm(1..k) it keeps
    integer coefficients, over S, the product of those lcms.  Returns an
    object array (min(n, 2p + 1), p + 1, p + 1) whose [r, j, i] is S times
    the coefficient of t^i of the j-th nonzero function on element row r:
    the first p rows are the left boundary elements, the last p rows the
    right ones and, beyond 2p elements, row p the cardinal element that
    every element between repeats (``_piece_rows``).
    """
    if n > 2 * p + 1:
        return _element_pieces(p, 2 * p + 1)
    knots = [0] * p + list(range(n + 1)) + [n] * p
    pieces = []
    for e in range(n):
        rows, scale = [np.ones(1, dtype=object)], 1
        for k in range(1, p + 1):
            lcm = math.lcm(*range(1, k + 1))
            scale *= lcm
            level = []
            for i in range(e + p - k, e + p + 1):
                # (x - t_i) / (t_(i+k) - t_i) N_(i,k-1) + (t_(i+k+1) - x) / (...) N_(i+1,k-1)
                poly = np.zeros(k + 1, dtype=object)
                for r, low, root, sign in ((i - e - p + k - 1, i, knots[i], 1),
                                           (i - e - p + k, i + 1, knots[i + k + 1], -1)):
                    if 0 <= r < k:
                        factor = sign * lcm // (knots[low + k] - knots[low])
                        poly[:-1] += factor * (e - root) * rows[r]
                        poly[1:] += factor * rows[r]
                level.append(poly)
            rows = level
        pieces.append(rows)
    return np.array(pieces, dtype=object), scale


def _piece_rows(p: int, n: int, e):
    """Row of ``_element_pieces(p, n)`` that holds element e of n."""
    return np.where(e < p, e, np.where(e >= n - p, e - n + min(n, 2 * p + 1), p))


@dataclass(frozen=True)
class KnotVector:
    """Open uniform knot vector on [0, 1] and its Dirichlet spline space.

    The full basis has n_basis = n_elements + degree functions; the
    space keeps n_dof = n_basis - 2.  Interior function i (0-based) is
    full-basis function i + 1: the first and last full-basis functions
    are the only ones not vanishing at the endpoints and are removed.

    Parameters
    ----------
    degree : int
        Polynomial degree p >= 1.
    n_elements : int
        Number of uniform elements (knot spans), >= 1.
    """

    degree: int
    n_elements: int

    def __post_init__(self):
        check_int("degree", self.degree, 1)
        check_int("n_elements", self.n_elements, 1)

    @property
    def h(self) -> float:
        """Uniform element size 1 / n_elements."""
        return 1.0 / self.n_elements

    @property
    def n_basis(self) -> int:
        """Number of functions in the full (unconstrained) basis."""
        return self.n_elements + self.degree

    @property
    def n_dof(self) -> int:
        """Number of interior (Dirichlet) degrees of freedom."""
        return self.n_basis - 2

    def all_basis_ders(self, span, x, n_ders: int) -> np.ndarray:
        """Nonzero basis functions and derivatives on knot spans.

        ``span`` and ``x`` are scalars or broadcastable arrays, one span
        per point, each span an integer in p..p + n - 1 and 0 <= n_ders
        <= p, or ``ConfigurationError``.  Returns an array ``ders`` of
        shape ``x.shape + (n_ders+1, p+1)`` where ``ders[..., k, j]`` is
        the k-th derivative of basis function ``span - p + j`` at ``x``:
        Horner's rule on the integer coefficients of ``_element_pieces``
        in t = n x - e on element e = span - p, divided by S / n^k last,
        so a function that vanishes at x = 0 or 1 reads exactly 0.  Every
        point goes through the same floating-point operations, so an
        array call equals the scalar calls bit for bit.
        """
        p, n = int(self.degree), int(self.n_elements)
        check_int("n_ders", n_ders, 0, p)
        span = np.asarray(span)
        bad = span if span.dtype.kind not in "iu" else span[(span < p) | (span >= p + n)]
        if bad.size:  # the first non-integer or out-of-range span
            check_int("span", bad.flat[0].item(), p, p + n - 1)
        pieces, scale = _element_pieces(p, n)
        e = span.astype(int, copy=False) - p  # an empty span of any dtype indexes nothing
        rows, t = _piece_rows(p, n, e), n * np.asarray(x, dtype=float) - e
        c = pieces.astype(float)
        ders = np.zeros((n_ders + 1,) + t.shape + (p + 1,))  # one contiguous block per order
        for k in range(n_ders + 1):
            acc = ders[k]  # Horner in place, so only one gathered row is extra
            for i in range(p - k, -1, -1):
                acc *= t[..., None]
                acc += c[rows, :, i]
            acc /= scale / n**k
            c = c[..., 1:] * np.arange(1, p - k + 1)
        return np.moveaxis(ders, 0, -2)


def eval_basis(space: KnotVector, x: float, r: int = 0):
    """Evaluate the full basis at one point.

    Parameters
    ----------
    space : KnotVector
        Basis description.
    x : float
        Point in [0, 1]; x = 1 belongs to the last element.
    r : int
        Derivative order, 0 <= r <= degree.

    Returns
    -------
    list of (int, float)
        Pairs (basis_index, value) for the at most p+1 functions whose
        support contains x, indices into the full basis.

    Raises
    ------
    ValueError
        If x lies outside [0, 1] or r is not an integer in 0..degree.
    """
    p, n = space.degree, space.n_elements
    check_int("r", r, 0, p)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x = {x} outside the domain [0, 1]")
    span = p + min(int(x * n), n - 1)
    return [(span - p + j, v) for j, v in enumerate(space.all_basis_ders(span, x, r)[r])]


def boundary_derivatives(space: KnotVector, r: int) -> tuple[np.ndarray, np.ndarray]:
    """r-th derivative of every interior basis function at x = 0 and x = 1.

    Returns two arrays of length n_dof.  Only the first p-1 entries of
    the first array and the last p-1 entries of the second can be
    nonzero (for r <= p-1): the r-th endpoint derivative involves the
    r+1 functions nearest that endpoint, one of which is the removed
    boundary function.
    """
    p, n = space.degree, space.n_elements
    check_int("r", r, 0, p)
    # the full basis on the first and the last element; the interior basis drops its ends
    at = np.zeros((2, n + p))
    at[0, : p + 1], at[1, n - 1 :] = space.all_basis_ders([p, p + n - 1], [0.0, 1.0], r)[:, r]
    return at[0, 1:-1], at[1, 1:-1]
