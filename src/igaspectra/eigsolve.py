"""Generalized symmetric-definite eigensolver K u = lambda M u.

Every caller takes one path.  The pencil is reduced with a Cholesky
factorisation of M and solved, eigenvectors included, by LAPACK's
divide-and-conquer driver (sygvd; Gu & Eisenstat, SIMAX 16, 1995).  Two
accuracy details on top of that:

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

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import get_lapack_funcs

from .assembly import SymBandMatrix
from .errors import DefinitenessError, NumericError, ResourceError

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
        return len(self.eigenvalues)


def _physical_memory() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


#: Peak bytes per n^2 of the dense solve: five n x n doubles, the
#: tracemalloc peak measured at n = 501..1205 (the symmetry check; the
#: divide-and-conquer solve itself peaks at four).
_DENSE_BYTES_PER_N2 = 40


def _check_dense_fits(n: int) -> None:
    """Raise ResourceError if a dense solve of n unknowns exceeds physical memory."""
    need = _DENSE_BYTES_PER_N2 * n * n
    if need > _physical_memory():
        raise ResourceError(
            f"dense solve would need {need / 2**30:.3g} GiB "
            f"for {n} unknowns, more than the physical memory")


def _as_dense(a) -> np.ndarray:
    if hasattr(a, "to_dense"):
        return a.to_dense()
    if hasattr(a, "toarray"):
        return a.toarray()
    return np.array(a, dtype=float, order="C")


def _lower_band(a, dense: np.ndarray) -> np.ndarray:
    """The lower band of ``a`` in SymBandMatrix storage, data[k, i] = a[i + k, i]."""
    if isinstance(a, SymBandMatrix):
        return a.data
    return np.array([np.pad(np.diagonal(dense, -k), (0, k)) for k in range(len(dense))])


def _check_spd(m: np.ndarray, name: str) -> None:
    potrf = get_lapack_funcs(("potrf",), (m,))[0]
    _, info = potrf(m, lower=True)
    if info > 0:
        raise DefinitenessError(
            f"{name} is not positive definite: Cholesky pivot {info} failed", pivot=info
        )
    if info < 0:
        raise NumericError(f"Cholesky of {name} failed with LAPACK info {info}")


def _rayleigh_quotients(k_band, m_band, vec, block: int = 16) -> np.ndarray:
    """(v^T K v) / (v^T M v) for each column v of ``vec``, in extended precision.

    K and M come as lower bands (SymBandMatrix storage).  Each row sum
    (K v)_i runs over the band entries of row i in column order, as the
    dense product K @ v would, at O(n p) per vector; ``block`` columns
    at a time bound the extended-precision buffers.
    """
    n, count = vec.shape
    w = min(max(len(k_band), len(m_band)), n)
    rows = np.zeros((n, 2, 2 * w - 1), dtype=np.longdouble)
    for m, band in enumerate((k_band, m_band)):
        for k in range(min(len(band), n)):
            rows[: n - k, m, w - 1 + k] = band[k, : n - k]
            rows[k:, m, w - 1 - k] = band[k, : n - k]
    pad = np.zeros((n + 2 * w - 2, block), dtype=np.longdouble)
    forms = np.empty((2, count), dtype=np.longdouble)
    for c in range(0, count, block):
        v = pad[w - 1 : w - 1 + n, : min(block, count - c)]
        v[...] = vec[:, c : c + v.shape[1]]
        # window[i, j] holds v[i + j - w + 1], the entries row i multiplies
        window = sliding_window_view(pad[:, : v.shape[1]], 2 * w - 1, axis=0)
        products = rows @ window.transpose(0, 2, 1)  # (n, 2, b): (K v)_i, (M v)_i
        forms[:, c : c + v.shape[1]] = np.einsum("ib,imb->mb", v, products)
    return (forms[0] / forms[1]).astype(float)


def solve_generalized(K, M, want_vectors: bool = True) -> Spectrum:
    """Solve K u = lambda M u for a symmetric pair with M positive definite.

    Every eigenvalue is the extended-precision Rayleigh quotient of its
    computed eigenvector, whatever the size and whether or not the
    vectors are returned.

    Parameters
    ----------
    K, M : array-like, SymBandMatrix or sparse
        Symmetric matrices of equal shape; neither is modified.
    want_vectors : bool
        Also return M-orthonormal eigenvectors.

    Returns
    -------
    Spectrum
        Eigenvalues ascending; eigenvectors (if requested) as columns,
        M-orthonormal, each with its largest-magnitude entry positive.

    Raises
    ------
    DefinitenessError
        If M is not positive definite (reports the failing pivot).
    ResourceError
        Before allocating, if the dense pair would not fit in physical
        memory.
    """
    _check_dense_fits(K.n if hasattr(K, "n") else max(np.shape(K), default=0))
    Kd = _as_dense(K)
    Md = _as_dense(M)
    if Kd.shape != Md.shape or Kd.ndim != 2 or Kd.shape[0] != Kd.shape[1]:
        raise ValueError(f"incompatible shapes {Kd.shape} and {Md.shape}")
    scale = np.abs(Kd).max() + np.abs(Md).max()
    if not (np.allclose(Kd, Kd.T, atol=1e-12 * scale)
            and np.allclose(Md, Md.T, atol=1e-12 * scale)):
        raise ValueError("K and M must be symmetric")
    _check_spd(Md, "M")
    k_band, m_band = _lower_band(K, Kd), _lower_band(M, Md)

    try:
        # the transposes are Fortran-ordered views of the same lower
        # triangles, which LAPACK overwrites in place without copying
        _, vec = sla.eigh(Kd.T, Md.T, lower=False, overwrite_a=True,
                          overwrite_b=True, driver="gvd")
    except sla.LinAlgError as exc:  # pragma: no cover - M checked above
        raise NumericError(f"generalized eigensolve failed: {exc}") from exc
    del Kd, Md

    lam = _rayleigh_quotients(k_band, m_band, vec)
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
