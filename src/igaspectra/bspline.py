"""Univariate B-spline bases of maximal smoothness on [0, 1].

Open (clamped) uniform knot vectors only: degree p, n uniform elements,
C^{p-1} continuity across the interior knots.  The full basis has
n + p functions; dropping the first and last one enforces homogeneous
Dirichlet conditions and leaves n + p - 2 interior functions.

Evaluation uses the standard triangular recurrence for the nonzero
basis functions on a knot span, together with the companion recurrence
for derivatives up to order p.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "KnotVector",
    "BSplineSpace",
    "eval_basis",
    "boundary_derivatives",
]


@dataclass(frozen=True)
class KnotVector:
    """Open uniform knot vector on [0, 1].

    Parameters
    ----------
    degree : int
        Polynomial degree p >= 1.
    n_elements : int
        Number of uniform elements (knot spans), >= 1.
    """

    degree: int
    n_elements: int
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, n = self.degree, self.n_elements
        if p < 1:
            raise ConfigurationError(f"degree must be >= 1, got {p}")
        if n < 1:
            raise ConfigurationError(f"n_elements must be >= 1, got {n}")
        breaks = np.linspace(0.0, 1.0, n + 1)
        knots = np.concatenate([np.zeros(p), breaks, np.ones(p)])
        object.__setattr__(self, "knots", knots)

    @property
    def h(self) -> float:
        """Uniform element size 1 / n_elements."""
        return 1.0 / self.n_elements

    @property
    def n_basis(self) -> int:
        """Number of functions in the full (unconstrained) basis."""
        return self.n_elements + self.degree

    def find_span(self, x: float) -> int:
        """Knot-span index mu with knots[mu] <= x < knots[mu+1].

        x = 1 is treated as belonging to the last element (closed on
        the right), so evaluation at the right endpoint is well defined.
        """
        if not (0.0 <= x <= 1.0):
            raise ValueError(f"x = {x} outside the domain [0, 1]")
        e = min(int(x * self.n_elements), self.n_elements - 1)
        return self.degree + e

    def span_of_element(self, e: int) -> int:
        return self.degree + e

    def all_basis_ders(self, span, x, n_ders: int) -> np.ndarray:
        """Nonzero basis functions and derivatives on knot spans.

        ``span`` and ``x`` are scalars or broadcastable arrays, one span
        per point.  Returns an array ``ders`` of shape
        ``x.shape + (n_ders+1, p+1)`` where ``ders[..., k, j]`` is the
        k-th derivative of basis function ``span - p + j`` at ``x``.
        Every point goes through the same floating-point operations, so
        an array call equals the scalar calls bit for bit.  Requires
        0 <= n_ders <= p.
        """
        p = self.degree
        t = self.knots
        span, x = np.broadcast_arrays(np.asarray(span), np.asarray(x, dtype=float))
        shape = x.shape
        ndu = np.empty((p + 1, p + 1) + shape)
        left = np.empty((p + 1,) + shape)
        right = np.empty((p + 1,) + shape)
        ndu[0, 0] = 1.0
        for j in range(1, p + 1):
            left[j] = x - t[span + 1 - j]
            right[j] = t[span + j] - x
            saved = 0.0
            for r in range(j):
                # lower triangle stores knot differences, upper the values
                ndu[j, r] = right[r + 1] + left[j - r]
                temp = ndu[r, j - 1] / ndu[j, r]
                ndu[r, j] = saved + right[r + 1] * temp
                saved = left[j - r] * temp
            ndu[j, j] = saved

        ders = np.zeros((n_ders + 1, p + 1) + shape)
        ders[0] = ndu[:, p]
        a = np.empty((2, p + 1) + shape)
        for r in range(p + 1):
            s1, s2 = 0, 1
            a[0, 0] = 1.0
            for k in range(1, n_ders + 1):
                d = 0.0
                rk = r - k
                pk = p - k
                if r >= k:
                    a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                    d = a[s2, 0] * ndu[rk, pk]
                j1 = 1 if rk >= -1 else -rk
                j2 = k - 1 if r - 1 <= pk else p - r
                for j in range(j1, j2 + 1):
                    a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                    d += a[s2, j] * ndu[rk + j, pk]
                if r <= pk:
                    a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                    d += a[s2, k] * ndu[r, pk]
                ders[k, r] = d
                s1, s2 = s2, s1

        factor = float(p)
        for k in range(1, n_ders + 1):
            ders[k] *= factor
            factor *= p - k
        return np.moveaxis(ders, (0, 1), (-2, -1))


@dataclass(frozen=True)
class BSplineSpace:
    """Dirichlet-conforming spline space: interior basis functions only.

    Interior function i (0-based, i = 0 .. n_dof-1) is full-basis
    function i + 1; the first and last full-basis functions are the only
    ones not vanishing at the endpoints and are removed.
    """

    knot_vector: KnotVector

    @classmethod
    def create(cls, degree: int, n_elements: int) -> "BSplineSpace":
        return cls(KnotVector(degree, n_elements))

    @property
    def degree(self) -> int:
        return self.knot_vector.degree

    @property
    def n_elements(self) -> int:
        return self.knot_vector.n_elements

    @property
    def h(self) -> float:
        return self.knot_vector.h

    @property
    def n_dof(self) -> int:
        """Number of interior (Dirichlet) degrees of freedom."""
        return self.knot_vector.n_basis - 2


def eval_basis(space: BSplineSpace | KnotVector, x: float, r: int = 0):
    """Evaluate the full basis at one point.

    Parameters
    ----------
    space : BSplineSpace or KnotVector
        Basis description.
    x : float
        Point in [0, 1].
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
        If x lies outside [0, 1] or r exceeds the degree.
    """
    kv = space.knot_vector if isinstance(space, BSplineSpace) else space
    p = kv.degree
    if r < 0 or r > p:
        raise ValueError(f"derivative order r = {r} not supported for degree {p}")
    span = kv.find_span(x)
    ders = kv.all_basis_ders(span, x, r)
    first = span - p
    return [(first + j, ders[r, j]) for j in range(p + 1)]


def boundary_derivatives(space: BSplineSpace, r: int) -> tuple[np.ndarray, np.ndarray]:
    """r-th derivative of every interior basis function at x = 0 and x = 1.

    Returns two arrays of length n_dof.  Only the first p-1 entries of
    the first array and the last p-1 entries of the second can be
    nonzero (for r <= p-1): the r-th endpoint derivative involves the
    r+1 functions nearest that endpoint, one of which is the removed
    boundary function.
    """
    kv = space.knot_vector
    p = kv.degree
    if r < 0 or r > p:
        raise ValueError(f"derivative order r = {r} not supported for degree {p}")
    # full-basis rows of the first and last element; the interior basis drops the ends
    at0 = np.zeros(kv.n_basis)
    at1 = np.zeros(kv.n_basis)
    at0[: p + 1] = kv.all_basis_ders(kv.span_of_element(0), 0.0, r)[r]
    at1[-(p + 1):] = kv.all_basis_ders(kv.span_of_element(kv.n_elements - 1), 1.0, r)[r]
    return at0[1:-1], at1[1:-1]
