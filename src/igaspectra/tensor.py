"""Tensor-product extension of the 1D pairs to boxes in 2D and 3D.

On [0, 1]^d the operator separates: with per-axis pairs (K_a, M_a) the
global matrices are Kronecker sums, e.g. in 2D

    K = K_x (x) M_y + M_x (x) K_y,      M = M_x (x) M_y,

and every global eigenvalue is a sum of one per-axis eigenvalue with
the eigenvector the tensor product of the axis eigenvectors.  The
``spectral_sum`` path exploits that directly and scales to meshes whose
materialised matrices would not fit in memory.

Index flattening convention: the x index varies fastest.  A global
index i encodes (i_x, i_y, i_z) as i = i_x + n_x * (i_y + n_y * i_z).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .eigsolve import Spectrum, _as_dense, _physical_memory
from .errors import ConfigurationError, ResourceError

__all__ = ["TensorSystem", "materialize", "spectral_sum"]

DEFAULT_SIZE_CAP = 20_000


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


def materialize(system: TensorSystem, size_cap: int = DEFAULT_SIZE_CAP):
    """Build the global sparse (K, M) pair by Kronecker products.

    With the x-fastest flattening, the last axis is the outermost
    Kronecker factor.  Refuses to build systems larger than ``size_cap``
    rows; use :func:`spectral_sum` for those.
    """
    total = int(np.prod(system.sizes))
    if total > size_cap:
        raise ResourceError(
            f"materialized system would have {total} rows (cap {size_cap}); "
            "use spectral_sum instead"
        )
    mats = [(sps.csr_matrix(_as_dense(K)), sps.csr_matrix(_as_dense(M)))
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


def spectral_sum(axis_spectra, k: int | None = None) -> Spectrum:
    """Combine per-axis 1D spectra into the d-dimensional spectrum.

    Parameters
    ----------
    axis_spectra : sequence of Spectrum or 1D arrays
        One entry per axis (2 or 3 axes).
    k : int, optional
        Keep only the k smallest sums, formed from the first k entries of
        each sorted axis array; a tuple with an index >= k has k tuples at
        or below it, so the result is bitwise the head of the full sum.

    Returns
    -------
    Spectrum
        The sums of one eigenvalue per axis, sorted ascending; no
        eigenvectors (they are tensor products, formed on demand).

    Raises ResourceError, before allocating, when the sums and their
    sorted copy would not fit in physical memory.
    """
    arrays = []
    for s in axis_spectra:
        arr = s.eigenvalues if isinstance(s, Spectrum) else np.asarray(s, dtype=float)
        arrays.append(arr if k is None else np.sort(arr)[:k])
    if not 2 <= len(arrays) <= 3:
        raise ConfigurationError(
            f"spectral_sum supports d in {{2, 3}}, got d = {len(arrays)}")
    count = math.prod(len(a) for a in arrays)
    if 16 * count > _physical_memory():
        raise ResourceError(
            f"spectral_sum would need {16 * count / 2**30:.3g} GiB for {count} "
            "sums and their sorted copy, more than the physical memory")
    grid = arrays[0]
    for a in arrays[1:]:
        grid = np.add.outer(grid, a)
    return Spectrum(np.sort(grid.ravel(), kind="stable")[:k])
