"""Generalized symmetric-definite eigensolver K u = lambda M u.

The pencil is a pair of banded SymBandMatrix.  One LAPACK call solves
it: the divide-and-conquer driver sygvd (Gu & Eisenstat, SIMAX 16,
1995) factorises M by Cholesky, reporting the failing pivot if M is not
positive definite, and returns every eigenvector.  Two accuracy details
on top of that:

* Eigenvalues out of the reduction carry absolute noise of order
  eps * lambda_max (amplified further when M is ill conditioned, as the
  blended-and-penalized mass matrices are on coarse meshes).  That noise
  can exceed the superconvergent discretisation error of the smallest
  eigenvalues.  Each eigenvalue is therefore re-evaluated as the
  Rayleigh quotient of its computed eigenvector, accumulated in extended
  precision from the band storage of K and M at O(n p) per vector: the
  quotient is quadratically insensitive to the eigenvector error, which
  brings the smallest eigenvalues to near machine-relative accuracy.
  The polish runs at every size, so the eigenvalues do not depend on
  whether the caller keeps the eigenvectors.
* Eigenvector signs are fixed so each vector's largest-magnitude entry
  is positive, making results reproducible across runs.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import get_lapack_funcs

from .assembly import SymBandMatrix
from .errors import DefinitenessError, NumericError, check_memory

__all__ = ["Spectrum", "solve_generalized"]


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with optional M-orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1:
            raise ValueError("eigenvalues must be a 1D array")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def n(self) -> int:
        """Number of eigenvalues."""
        return len(self.eigenvalues)


#: Peak bytes of the dense solve: per n^2, four n x n doubles (the pair
#: and the divide-and-conquer workspace); per n * w, for a band of w
#: stored diagonals, the extended-precision rows of the polish.  The
#: tracemalloc peak measured at n = 501..1205, p = 3, 5, 7 fits under
#: the sum.
_DENSE_BYTES_PER_N2 = 32
_POLISH_BYTES_PER_NW = 80
#: Eigenvectors polished at a time; bounds the extended-precision buffers.
_POLISH_BLOCK = 16


def _check_dense_fits(n: int, width: int) -> None:
    """Raise ResourceError if a dense solve of n unknowns exceeds physical memory.

    ``width`` is the number of stored diagonals of the wider band.
    """
    check_memory(_DENSE_BYTES_PER_N2 * n * n + _POLISH_BYTES_PER_NW * n * width,
                 "dense solve", f"{n} unknowns")


def _rayleigh_quotients(k_band, m_band, vec) -> np.ndarray:
    """(v^T K v) / (v^T M v) for each column v of ``vec``, in extended precision.

    K and M come as lower bands (SymBandMatrix storage).  Each row sum
    (K v)_i runs over the band entries of row i in column order, as the
    dense product K @ v would, at O(n p) per vector; ``_POLISH_BLOCK``
    columns at a time bound the extended-precision buffers.
    """
    n, count = vec.shape
    w = min(max(len(k_band), len(m_band)), n)
    rows = np.zeros((n, 2, 2 * w - 1), dtype=np.longdouble)
    for m, band in enumerate((k_band, m_band)):
        for k in range(min(len(band), n)):
            rows[: n - k, m, w - 1 + k] = band[k, : n - k]
            rows[k:, m, w - 1 - k] = band[k, : n - k]
    pad = np.zeros((n + 2 * w - 2, _POLISH_BLOCK), dtype=np.longdouble)
    forms = np.empty((2, count), dtype=np.longdouble)
    for c in range(0, count, _POLISH_BLOCK):
        v = pad[w - 1 : w - 1 + n, : min(_POLISH_BLOCK, count - c)]
        v[...] = vec[:, c : c + v.shape[1]]
        # window[i, j] holds v[i + j - w + 1], the entries row i multiplies
        window = sliding_window_view(pad[:, : v.shape[1]], 2 * w - 1, axis=0)
        products = rows @ window.transpose(0, 2, 1)  # (n, 2, b): (K v)_i, (M v)_i
        forms[:, c : c + v.shape[1]] = np.einsum("ib,imb->mb", v, products)
    return (forms[0] / forms[1]).astype(float)


def solve_generalized(K: SymBandMatrix, M: SymBandMatrix,
                      want_vectors: bool = True) -> Spectrum:
    """Solve K u = lambda M u for a symmetric pair with M positive definite.

    Every eigenvalue is the extended-precision Rayleigh quotient of its
    computed eigenvector, whatever the size and whether or not the
    vectors are returned.

    Parameters
    ----------
    K, M : SymBandMatrix
        Banded symmetric matrices of equal size; neither is modified.
    want_vectors : bool
        Also return M-orthonormal eigenvectors.

    Returns
    -------
    Spectrum
        Eigenvalues ascending; eigenvectors (if requested) as columns,
        M-orthonormal, each with its largest-magnitude entry positive.

    Raises
    ------
    TypeError
        If K or M is not a SymBandMatrix.
    ValueError
        If the sizes differ or a band holds a NaN or infinity.
    DefinitenessError
        If M is not positive definite (reports the failing pivot).
    ResourceError
        Before allocating, if the dense pair would not fit in physical
        memory.
    """
    if not (isinstance(K, SymBandMatrix) and isinstance(M, SymBandMatrix)):
        raise TypeError("K and M must be SymBandMatrix, got "
                        f"{type(K).__name__} and {type(M).__name__}")
    if K.n != M.n:
        raise ValueError(f"K and M differ in size: {K.n} and {M.n}")
    n = K.n
    _check_dense_fits(n, max(K.bandwidth, M.bandwidth) + 1)
    if not (np.isfinite(K.data).all() and np.isfinite(M.data).all()):
        raise ValueError("K and M must hold finite band entries")

    # the transposes are Fortran-ordered views of the same lower
    # triangles, which LAPACK overwrites in place without copying
    a, b = K.to_dense().T, M.to_dense().T
    sygvd = get_lapack_funcs("sygvd", (a, b))
    _, vec, info = sygvd(a, b, uplo="U", overwrite_a=1, overwrite_b=1)
    del a, b
    if info > n:
        raise DefinitenessError(
            f"M is not positive definite: Cholesky pivot {info - n} failed",
            pivot=info - n)
    if info:
        raise NumericError(f"generalized eigensolve failed with LAPACK info {info}")

    lam = _rayleigh_quotients(K.data, M.data, vec)
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    if not want_vectors:
        return Spectrum(lam)
    if np.any(order != np.arange(len(order))):
        vec = vec[:, order]
    idx = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[idx, np.arange(vec.shape[1])])
    signs[signs == 0] = 1.0
    vec *= signs
    return Spectrum(lam, vec)
