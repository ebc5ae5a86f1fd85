"""Generalized symmetric-definite eigensolver K u = lambda M u.

The pencil is reduced with a Cholesky factorisation of M and solved by
the standard symmetric dense path (LAPACK sygv: tridiagonalisation plus
implicit-shift iteration).  Two accuracy details on top of that:

* Eigenvalues out of the reduction carry absolute noise of order
  eps * lambda_max (amplified further when M is ill conditioned, as the
  blended-and-penalized mass matrices are on coarse meshes).  That noise
  can exceed the superconvergent discretisation error of the smallest
  eigenvalues.  Each eigenvalue is therefore re-evaluated as the
  Rayleigh quotient of its computed eigenvector, accumulated in extended
  precision: the quotient is quadratically insensitive to the
  eigenvector error, which brings the smallest eigenvalues to near
  machine-relative accuracy.
* Eigenvector signs are fixed so each vector's largest-magnitude entry
  is positive, making results reproducible across runs.
"""

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import get_lapack_funcs

from .errors import DefinitenessError, NumericError, ResourceError

__all__ = ["Spectrum", "SpectrumMeta", "solve_generalized"]


@dataclass(frozen=True)
class SpectrumMeta:
    """Provenance of a computed spectrum (degree, mesh, dimension, scheme)."""

    degree: int | None = None
    elements: tuple | None = None
    dim: int | None = None
    quadrature: str | None = None
    penalty: str | None = None


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with optional M-orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    meta: SpectrumMeta | None = None

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
#: tracemalloc peak measured at n = 501..1205 (no polish).
_DENSE_BYTES_PER_N2 = 40


def _as_dense(a) -> np.ndarray:
    if hasattr(a, "to_dense"):
        return a.to_dense()
    if hasattr(a, "toarray"):
        return a.toarray()
    return np.asarray(a, dtype=float)


def _check_spd(m: np.ndarray, name: str) -> None:
    potrf = get_lapack_funcs(("potrf",), (m,))[0]
    _, info = potrf(m, lower=True)
    if info > 0:
        raise DefinitenessError(
            f"{name} is not positive definite: Cholesky pivot {info} failed", pivot=info
        )
    if info < 0:
        raise NumericError(f"Cholesky of {name} failed with LAPACK info {info}")


#: Rayleigh-quotient polish is skipped above this size: the extended
#: precision quadratic forms cost O(n^3) without BLAS.  All instances
#: the package solves densely stay well below it.
_POLISH_SIZE_LIMIT = 400


def _rq_polish(Kd, Md, lam, vec):
    """Re-evaluate eigenvalues as extended-precision Rayleigh quotients.

    Returns (lam, vec) re-sorted together, since polished values in a
    near-degenerate cluster may swap order.
    """
    V = vec.astype(np.longdouble)
    num = np.einsum("ij,ij->j", V, Kd.astype(np.longdouble) @ V)
    den = np.einsum("ij,ij->j", V, Md.astype(np.longdouble) @ V)
    if np.any(den <= 0):
        return lam, vec
    polished = (num / den).astype(float)
    order = np.argsort(polished, kind="stable")
    return polished[order], vec[:, order]


def solve_generalized(K, M, want_vectors: bool = True,
                      polish: bool = True,
                      meta: SpectrumMeta | None = None) -> Spectrum:
    """Solve K u = lambda M u for a symmetric pair with M positive definite.

    Parameters
    ----------
    K, M : array-like, SymBandMatrix or sparse
        Symmetric matrices of equal shape.
    want_vectors : bool
        Also return M-orthonormal eigenvectors.
    polish : bool
        Re-evaluate each eigenvalue as the Rayleigh quotient of its
        computed eigenvector, accumulated in extended precision.  This
        removes most of the reduction noise (decisive for the smallest
        eigenvalues, whose discretisation error is superconvergent).
        Skipped for systems larger than a few hundred unknowns.
    meta : SpectrumMeta, optional
        Attached to the returned Spectrum unchanged.

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
    n = K.n if hasattr(K, "n") else max(np.shape(K), default=0)
    if _DENSE_BYTES_PER_N2 * n * n > _physical_memory():
        raise ResourceError(
            f"dense solve would need {_DENSE_BYTES_PER_N2 * n * n / 2**30:.3g} GiB "
            f"for {n} unknowns, more than the physical memory")
    Kd = _as_dense(K)
    Md = _as_dense(M)
    if Kd.shape != Md.shape or Kd.ndim != 2 or Kd.shape[0] != Kd.shape[1]:
        raise ValueError(f"incompatible shapes {Kd.shape} and {Md.shape}")
    scale = np.abs(Kd).max() + np.abs(Md).max()
    if not (np.allclose(Kd, Kd.T, atol=1e-12 * scale)
            and np.allclose(Md, Md.T, atol=1e-12 * scale)):
        raise ValueError("K and M must be symmetric")

    polish = polish and Kd.shape[0] <= _POLISH_SIZE_LIMIT
    _check_spd(Md, "M")
    try:
        if want_vectors or polish:
            lam, vec = sla.eigh(Kd, Md, driver="gv")
        else:
            lam = sla.eigh(Kd, Md, driver="gv", eigvals_only=True)
            vec = None
    except sla.LinAlgError as exc:  # pragma: no cover - M checked above
        raise NumericError(f"generalized eigensolve failed: {exc}") from exc

    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    if vec is not None:
        vec = vec[:, order]

    if polish:
        lam, vec = _rq_polish(Kd, Md, lam, vec)
    if not want_vectors:
        vec = None

    if vec is not None:
        idx = np.argmax(np.abs(vec), axis=0)
        signs = np.sign(vec[idx, np.arange(vec.shape[1])])
        signs[signs == 0] = 1.0
        vec = vec * signs

    return Spectrum(lam, vec, meta)

