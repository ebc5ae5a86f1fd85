"""Tensor-product extension of the 1D pairs to boxes in 2D and 3D.

On [0, 1]^d the operator separates: with per-axis pairs (K_a, M_a) the
global matrices are Kronecker sums, e.g. in 2D

    K = K_x (x) M_y + M_x (x) K_y,      M = M_x (x) M_y,

and every global eigenvalue is a sum of one per-axis eigenvalue with
the eigenvector the tensor product of the axis eigenvectors.  The
``spectral_sum`` path exploits that directly and scales to meshes whose
materialised matrices would not fit in memory.
"""

import math

import numpy as np

from .eigsolve import Spectrum
from .errors import ConfigurationError, check_int, check_memory

__all__ = ["spectral_sum"]


def spectral_sum(axis_spectra, k: int | None = None) -> Spectrum:
    """Combine per-axis 1D spectra into the d-dimensional spectrum.

    Parameters
    ----------
    axis_spectra : sequence of Spectrum
        One per axis (2 or 3 axes).
    k : int, optional
        Keep only the k >= 1 smallest sums, formed from the first k
        eigenvalues of each axis; a tuple with an index >= k has k tuples
        at or below it, so the result is bitwise the head of the full sum.

    Returns
    -------
    Spectrum
        The sums of one eigenvalue per axis, sorted ascending; no
        eigenvectors (they are tensor products, formed on demand).

    Raises ResourceError, before allocating, when the sums and their
    sorted copy would not fit in physical memory.
    """
    if k is not None:
        check_int("k", k, 1)
    arrays = [s.eigenvalues[:k] for s in axis_spectra]
    if not 2 <= len(arrays) <= 3:
        raise ConfigurationError(
            f"spectral_sum supports d in {{2, 3}}, got d = {len(arrays)}")
    count = math.prod(len(a) for a in arrays)
    check_memory(16 * count, "spectral_sum", f"{count} sums and their sorted copy")
    grid = arrays[0]
    for a in arrays[1:]:
        grid = np.add.outer(grid, a)
    return Spectrum(np.sort(grid.ravel(), kind="stable")[:k])
