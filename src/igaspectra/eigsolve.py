"""Generalized symmetric-definite eigensolver K u = lambda M u.

The pencil is a pair of banded SymBandMatrix, solved on one of two paths:

* every pair, by the divide-and-conquer driver sygvd (Gu & Eisenstat,
  SIMAX 16, 1995) on the dense pair, which factorises M by Cholesky and
  reports the failing pivot if M is not positive definite;
* the k smallest pairs, when asked for and the pencil has more than
  b = 2k + 8 unknowns, by block subspace iteration on K^-1 M (Bathe &
  Wilson 1972; Saad, Numerical Methods for Large Eigenvalue Problems,
  ch. 5) at O(n b (p + b)) per step: b start columns sin(j pi x_i),
  then per step a band Cholesky solve with K (LAPACK pbtrf/pbtrs) and
  a b x b Rayleigh-Ritz step.  Mode j keeps a part of the modes beyond
  the block that shrinks as (lambda_j / lambda_(b+1))^it, so the
  iteration runs until (theta_k / theta_b)^it <= eps for the current
  Ritz values theta, well past the point where the backward error
  alone looks converged; the k pairs must then meet a backward-error
  bound.

Two accuracy details on top of either path:

* Eigenvalues out of the reduction carry absolute noise of order
  eps * lambda_max (amplified further when M is ill conditioned, as the
  blended-and-penalized mass matrices are on coarse meshes).  That noise
  can exceed the superconvergent discretisation error of the smallest
  eigenvalues.  Each eigenvalue is therefore re-evaluated as the
  Rayleigh quotient of its computed eigenvector, accumulated in extended
  precision by the module's one band row product, at O(n p) per
  vector: the quotient is quadratically insensitive to the eigenvector
  error, which brings the smallest eigenvalues to near machine-relative
  accuracy.  The polish runs at every size, so the eigenvalues do not
  depend on whether the caller keeps the eigenvectors.
* Eigenvector signs are fixed so each vector's largest-magnitude entry
  is positive, making results reproducible across runs.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import get_lapack_funcs

from .assembly import SymBandMatrix
from .errors import DefinitenessError, NumericError, check_int, check_memory

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
#: Peak bytes of the subset solve per (n + b) * b, for a block of b
#: vectors: per n * b the iterates, their products with M and the
#: polish buffers, per b^2 the Rayleigh-Ritz pair and sygvd workspace.
#: The tracemalloc peak measured at n = 200..20000, p = 1, 3, 7 and
#: b = 10..308 fits under the sum with the polish term.
_SUBSET_BYTES_PER_NB = 48
#: Eigenvectors polished at a time; bounds the extended-precision buffers.
_POLISH_BLOCK = 16
#: Subspace iteration: iteration cap, and the backward error
#: |K u - lambda M u| / ((|K| + |lambda| |M|) |u|) a returned pair must meet.
_MAX_ITERATIONS = 200
_BACKWARD_ERROR_BOUND = 1e-12


def _block_size(k: int | None, n: int) -> int | None:
    """Subspace block for the k smallest pairs, or None where the dense path runs."""
    if k is None or 2 * k + 8 >= n:
        return None
    return 2 * k + 8


def _check_solve_fits(n: int, width: int, k: int | None = None) -> None:
    """Raise ResourceError if the solve of n unknowns that runs exceeds physical memory.

    ``width`` is the number of stored diagonals of the wider band; ``k``
    asks for the k smallest pairs, which need O(n (b + w)) bytes on the
    subset path instead of O(n^2).
    """
    b = _block_size(k, n)
    if b is None:
        need = _DENSE_BYTES_PER_N2 * n * n
        task = "dense solve"
    else:
        need = _SUBSET_BYTES_PER_NB * (n + b) * b
        task = f"subset solve of {k} pairs"
    check_memory(need + _POLISH_BYTES_PER_NW * n * width, task, f"{n} unknowns")


def _band_rows(bands, dtype) -> np.ndarray:
    """(n, m, 2w - 1) rows of the m symmetric matrices stored as lower ``bands``:
    [i, m, w - 1 + j] holds entry (i, i + j), zero outside the matrix."""
    n = bands[0].shape[1]
    w = min(max(len(band) for band in bands), n)
    rows = np.zeros((n, len(bands), 2 * w - 1), dtype=dtype)
    for m, band in enumerate(bands):
        for k in range(min(len(band), n)):
            rows[: n - k, m, w - 1 + k] = band[k, : n - k]
            rows[k:, m, w - 1 - k] = band[k, : n - k]
    return rows


def _band_products(rows, x) -> np.ndarray:
    """(n, m, c) products of the ``_band_rows`` matrices with the n x c ``x``,
    each row summed in column order at O(w) per entry."""
    n, _, width = rows.shape
    pad = np.zeros((n + width - 1, x.shape[1]), dtype=rows.dtype)
    pad[width // 2 : width // 2 + n] = x
    # window[i, j] holds x[i + j - width // 2], the entry row i multiplies at j
    return rows @ sliding_window_view(pad, width, axis=0).transpose(0, 2, 1)


def _rayleigh_quotients(k_band, m_band, vec) -> np.ndarray:
    """(v^T K v) / (v^T M v) for each column v of ``vec``, in extended precision.

    K and M come as lower bands (SymBandMatrix storage); ``_POLISH_BLOCK``
    columns at a time bound the extended-precision buffers.
    """
    n, count = vec.shape
    rows = _band_rows((k_band, m_band), np.longdouble)
    # one extended-precision block, so the einsum below casts nothing
    block = np.empty((n, min(count, _POLISH_BLOCK)), dtype=np.longdouble)
    forms = np.empty((2, count), dtype=np.longdouble)
    for c in range(0, count, _POLISH_BLOCK):
        v = block[:, : min(_POLISH_BLOCK, count - c)]
        v[...] = vec[:, c : c + v.shape[1]]
        forms[:, c : c + v.shape[1]] = np.einsum("ib,imb->mb", v, _band_products(rows, v))
    return (forms[0] / forms[1]).astype(float)


def _dense_vectors(K: SymBandMatrix, M: SymBandMatrix) -> np.ndarray:
    """Every eigenvector of the pair, by sygvd on the dense triangles."""
    n = K.n
    # the transposes are Fortran-ordered views of the same lower
    # triangles, which LAPACK overwrites in place without copying
    a, b = K.to_dense().T, M.to_dense().T
    sygvd = get_lapack_funcs("sygvd", (a, b))
    _, vec, info = sygvd(a, b, uplo="U", overwrite_a=1, overwrite_b=1)
    if info > n:
        raise DefinitenessError(
            f"M is not positive definite: Cholesky pivot {info - n} failed",
            pivot=info - n)
    if info:
        raise NumericError(f"generalized eigensolve failed with LAPACK info {info}")
    return vec


def _subspace_vectors(K: SymBandMatrix, M: SymBandMatrix, k: int, b: int) -> np.ndarray:
    """The k smallest M-orthonormal eigenvectors, by subspace iteration on K^-1 M."""
    n = K.n
    k_band = K.data[: min(K.bandwidth + 1, n)]
    m_band = M.data[: min(M.bandwidth + 1, n)]
    pbtrf, pbtrs, sygvd = get_lapack_funcs(("pbtrf", "pbtrs", "sygvd"), (k_band,))
    info = pbtrf(m_band, lower=1)[1]
    if info > 0:
        raise DefinitenessError(
            f"M is not positive definite: Cholesky pivot {info} failed", pivot=info)
    k_factor, info = pbtrf(k_band, lower=1)
    if info > 0:
        raise NumericError(f"K is not positive definite: Cholesky pivot {info} failed")
    m_rows = _band_rows((m_band,), float)
    x = np.arange(1, n + 1) / (n + 1)
    vec = np.sin(np.pi * np.outer(x, np.arange(1, b + 1)))
    for it in range(1, _MAX_ITERATIONS + 1):
        m_vec = _band_products(m_rows, vec)[:, 0]
        y = pbtrs(k_factor, m_vec, lower=1)[0]
        # K y = M vec, so y^T K y = y^T M vec
        theta, q, info = sygvd(y.T @ m_vec, y.T @ _band_products(m_rows, y)[:, 0], uplo="U")
        if info:
            raise NumericError(f"Rayleigh-Ritz step failed with LAPACK info {info}")
        vec = y @ q
        if (theta[k - 1] / theta[-1]) ** it <= np.finfo(float).eps:
            return vec[:, :k]
    raise NumericError(f"subspace iteration for {k} pairs of {n} unknowns did not "
                       f"converge in {_MAX_ITERATIONS} iterations")


def _check_backward_errors(K: SymBandMatrix, M: SymBandMatrix, lam, vec) -> None:
    """Raise NumericError if a pair misses ``_BACKWARD_ERROR_BOUND``."""
    rows = _band_rows((K.data, M.data), float)
    k_vec, m_vec = _band_products(rows, vec).transpose(1, 0, 2)
    # the 1-norm of a symmetric matrix is its largest absolute row sum
    k_norm, m_norm = np.abs(rows).sum(axis=2).max(axis=0)
    err = np.linalg.norm(k_vec - m_vec * lam, axis=0) / (
        (k_norm + np.abs(lam) * m_norm) * np.linalg.norm(vec, axis=0))
    if not np.all(err <= _BACKWARD_ERROR_BOUND):
        raise NumericError(f"subset eigenpairs miss the backward error bound "
                           f"{_BACKWARD_ERROR_BOUND:g}: worst {err.max():.2e}")


def solve_generalized(K: SymBandMatrix, M: SymBandMatrix,
                      want_vectors: bool = True, k: int | None = None) -> Spectrum:
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
    k : int, optional
        Return only the k >= 1 smallest pairs (all of them if the pencil
        has fewer), by subspace iteration when there are more than
        2k + 8 unknowns; K must then be positive definite too.

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
    NumericError
        On the subset path, if K is not positive definite or the
        iteration does not converge.
    ResourceError
        Before allocating, if the solve would not fit in physical memory.
    """
    if not (isinstance(K, SymBandMatrix) and isinstance(M, SymBandMatrix)):
        raise TypeError("K and M must be SymBandMatrix, got "
                        f"{type(K).__name__} and {type(M).__name__}")
    if K.n != M.n:
        raise ValueError(f"K and M differ in size: {K.n} and {M.n}")
    if k is not None:
        check_int("k", k, 1)
    n = K.n
    _check_solve_fits(n, max(K.bandwidth, M.bandwidth) + 1, k)
    if not (np.isfinite(K.data).all() and np.isfinite(M.data).all()):
        raise ValueError("K and M must hold finite band entries")

    b = _block_size(k, n)
    vec = _dense_vectors(K, M) if b is None else _subspace_vectors(K, M, k, b)
    lam = _rayleigh_quotients(K.data, M.data, vec)
    order = np.argsort(lam, kind="stable")[:k]
    lam = lam[order]
    if b is not None:
        _check_backward_errors(K, M, lam, vec[:, order])
    if not want_vectors:
        return Spectrum(lam)
    if len(order) < vec.shape[1] or np.any(order != np.arange(len(order))):
        vec = vec[:, order]
    idx = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[idx, np.arange(vec.shape[1])])
    signs[signs == 0] = 1.0
    vec *= signs
    return Spectrum(lam, vec)
