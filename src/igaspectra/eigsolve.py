"""Generalized symmetric-definite eigensolver K u = lambda M u, on numpy alone.

The pencil is a pair of banded SymBandMatrix.  Both of its solve paths
rest on one block band Cholesky factor: blocks of s >= w rows make a
band of w diagonals block tridiagonal, np.linalg.cholesky factors each
diagonal block less its coupling to the block before, and a solve is
one batched product with the inverted diagonal blocks plus a w-column
update per block.  A block that fails is factored again one column at a
time, to report the first failing pivot as LAPACK potrf numbers it.
Every solve begins by so factoring M, which reports M's pivot whatever
path runs: the unfolded reduction keeps that factor, and the fold and
the subset path factor M only for its pivot, before M's halves or K.

* every pair, by the Cholesky reduction M = L L^T: the eigenvectors z
  of L^-1 K L^-T, from np.linalg.eigh (divide and conquer, Gu &
  Eisenstat, SIMAX 16, 1995), give the pencil's as L^-T z.  A pencil of
  at least 128 unknowns whose bands are persymmetric bit for bit (J K J =
  K and J M J = M, J the reversal, as every assembled pencil is) is first
  folded into two half-size pencils of the same bandwidth (Cantoni &
  Butler, Linear Algebra Appl. 13, 1976), each reduced so: a quarter of
  the eigh work, and about a third of the memory;
* the k smallest pairs, when asked for and the pencil has more than
  b = 2k + 8 unknowns, by block subspace iteration on K^-1 M (Bathe &
  Wilson 1972; Saad, Numerical Methods for Large Eigenvalue Problems,
  ch. 5) at O(n b (s + b)) per step: b start columns sin(j pi x_i),
  then per step the two solves with K's band Cholesky factor and a
  b x b Rayleigh-Ritz step (the same reduction, on the block's Gram
  matrix).  Mode j keeps a part of the modes beyond
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
  accuracy.  An assembled pencil keeps the rounding residual of each
  entry in ``SymBandMatrix.low``, and the quotient adds v^T K_lo v and
  v^T M_lo v in doubles, so it is the exact pencil's quotient, not its
  float64 rounding's: at p = 7 on 20 elements the float64 pencil's
  eigenvalues lie up to 1,405 ulp from the exact pencil's, and the
  polished ones within 1 ulp.  The vectors are the float64 pencil's
  either way.  The polish runs at every size, so the eigenvalues do not
  depend on whether the caller keeps the eigenvectors.  Every path hands
  it its vectors in the same form, and folded ones are unfolded there,
  block by block, and polished against the full pencil.  Each quotient
  is a row product of its own column, so ``ends`` polishes only the two
  columns at each end of each dense part (eigh orders them by unpolished
  values, which may swap a near tie) and gets the extremes bit for bit.
* Eigenvector signs are fixed so each vector's largest-magnitude entry
  is positive, making results reproducible across runs.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


#: Peak bytes of the dense solve: per n^2, five n x n doubles (the
#: reduced matrix, eigh's copy of it, its divide-and-conquer workspace
#: of two and the eigenvectors; the peak RSS growth measured at n = 1501
#: and 2005 is 41-43 n^2 bytes with the other terms, that of a folded
#: values-only solve 14 n^2 at n = 2005); per n * w, for a band of w stored diagonals,
#: the extended-precision rows of the polish and the float64 rows of the
#: residual bands (the tracemalloc peak of the polish with all n diagonals
#: stored, n = 403, is 104 n^2 bytes; 68 n^2 without the residual rows).
_DENSE_BYTES_PER_N2 = 40
_POLISH_BYTES_PER_NW = 112
#: Peak bytes of the subset solve per (n + b) * b, for a block of b
#: vectors: per n * b the iterates, their products with M and the
#: polish buffers, per b^2 the Rayleigh-Ritz pair and eigh workspace.
_SUBSET_BYTES_PER_NB = 48
#: Peak bytes of the band Cholesky per n * s, for blocks of s rows: the
#: work array of the blocks and their couplings (s + w <= 1.5 s doubles
#: a row), the inverses (s) and the identity padding of the last block.
#: The tracemalloc peak measured at n = 200..20000, p = 1, 3, 7 and
#: b = 10..308 on the subset path, and n = 400..1205, p = 1..7 on the
#: dense one, fits under the sum of the terms.
_FACTOR_BYTES_PER_NS = 24
#: Eigenvectors polished at a time; bounds the extended-precision buffers.
_POLISH_BLOCK = 16
#: The dense path folds a pencil of at least ``_FOLD_MIN_N`` unknowns whose
#: bands are exactly persymmetric, as every assembled pencil is, into two
#: half-size pencils.  Below that size the dense solve costs little, and the
#: fold's lambda_1 on coarse meshes of high degree is less accurate.
_FOLD_MIN_N = 128
#: Subspace iteration: iteration cap, and the backward error
#: |K u - lambda M u| / ((|K| + |lambda| |M|) |u|) a returned pair must meet.
_MAX_ITERATIONS = 200
_BACKWARD_ERROR_BOUND = 1e-12


def _block_size(k: int | None, n: int) -> int | None:
    """Subspace block for the k smallest pairs, or None where the dense path runs."""
    if k is None or 2 * k + 8 >= n:
        return None
    return 2 * k + 8


def _factor_block(n: int, w: int) -> int:
    """Rows per block of the band Cholesky of n unknowns and bandwidth w.

    Blocks of 32 rows balance the per-block Python steps against the
    block products, which grow with the block; at least 2w rows keep the
    w-column updates below half of those products.
    """
    return min(n, max(32, 2 * w))


def _solve_bytes(n: int, width: int, k: int | None = None) -> int:
    """Peak bytes of the solve of n unknowns that runs.

    ``width`` is the number of stored diagonals of the wider band; ``k``
    asks for the k smallest pairs, which need O(n (b + w)) bytes on the
    subset path instead of O(n^2).
    """
    b = _block_size(k, n)
    need = (_POLISH_BYTES_PER_NW * n * width
            + _FACTOR_BYTES_PER_NS * n * _factor_block(n, min(width, n) - 1))
    if b is None:
        return need + _DENSE_BYTES_PER_N2 * n * n
    return need + _SUBSET_BYTES_PER_NB * (n + b) * b


def _check_solve_fits(n: int, width: int, k: int | None = None) -> None:
    """Raise ResourceError if ``_solve_bytes`` exceeds physical memory."""
    task = "dense solve" if _block_size(k, n) is None else f"subset solve of {k} pairs"
    check_memory(_solve_bytes(n, width, k), task, f"{n} unknowns")


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


def _cholesky_blocks(band, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Block Cholesky factor of the symmetric positive definite matrix with lower ``band``.

    Blocks of s >= w rows, w the bandwidth, make the matrix block
    tridiagonal, with diagonal blocks D_i and subdiagonal blocks B_i.
    Block i of the factor L is the Cholesky factor L_i of D_i - C_i C_i^T,
    where the coupling C_i = B_i L_(i-1)^-T is nonzero only in its
    top-right w x w corner c_i.  Rows past n are padded with the identity.
    Returns the (count, s, s) stack of the L_i and the (count, w, w) stack
    of the c_i (c_0 = 0).  Raises DefinitenessError, naming the matrix
    ``name``, at the first pivot that is not > 0.
    """
    n = band.shape[1]
    w = min(len(band), n) - 1
    s = _factor_block(n, w)
    count = -(-n // s)
    # rows[i, r, w + j] holds entry (i s + r, i s + j) for j = r - w .. r:
    # [:, :, w:] the lower triangles of the D_i, [:, :w, :w] the corners of the B_i
    rows = np.zeros((count, s, s + w))
    r = np.arange(s)
    for k in range(w + 1):
        # entry (g, g - k) of every row g, and 1 on the padded diagonal
        diagonal = np.full(count * s, float(k == 0))
        diagonal[k:n] = band[k, : n - k]
        rows[:, r, w + r - k] = diagonal.reshape(count, s)
    low = rows[:, :, w:]
    coupling = np.zeros((count, w, w))
    for i in range(count):
        if i and w:
            # c_i^T = L_(i-1)^-1 B_i^T, where only L_(i-1)'s trailing corner meets B_i
            coupling[i] = np.linalg.solve(low[i - 1, s - w :, s - w :], rows[i, :w, :w].T).T
            low[i, :w, :w] -= coupling[i] @ coupling[i].T
        try:
            low[i] = np.linalg.cholesky(low[i])
        except np.linalg.LinAlgError:
            low[i] = _unblocked_cholesky(low[i], i * s, name)
    return low, coupling


def _unblocked_cholesky(a, offset: int, name: str) -> np.ndarray:
    """Cholesky factor of the lower triangle of ``a``, one column at a time.

    Raises DefinitenessError at the first pivot that is not > 0, as the
    1-based row ``offset + j + 1`` that LAPACK potrf reports for the whole matrix.
    """
    low = np.tril(a)
    for j in range(len(low)):
        pivot = low[j, j] - low[j, :j] @ low[j, :j]
        if not pivot > 0:
            raise DefinitenessError(f"{name} is not positive definite: Cholesky pivot "
                                    f"{offset + j + 1} failed", pivot=offset + j + 1)
        low[j, j] = np.sqrt(pivot)
        low[j + 1 :, j] = (low[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


class _BandCholesky:
    """Solves with the factor L of ``_cholesky_blocks``.

    Each diagonal block L_i is kept as its inverse, so a solve is one
    batched product with the inverses plus a w-column update per block:
    y_i = L_i^-1 x_i - (L_i^-1 C_i) y_(i-1) forward,
    x_i = L_i^-T y_i - (L_i^-T C_(i+1)^T) x_(i+1) backward.
    """

    def __init__(self, band, name: str):
        low, coupling = _cholesky_blocks(band, name)
        s, w = low.shape[1], coupling.shape[1]
        self.n, self.w = band.shape[1], w
        self.inv = np.linalg.inv(low)
        del low  # frees the factor's work array before the products below
        self.inv *= np.tri(s)  # exactly lower triangular, as LU leaves it only nearly
        # the nonzero columns of L_i^-1 C_i and L_i^-T C_(i+1)^T
        self.lower = self.inv[:, :, :w] @ coupling
        self.upper = (self.inv[:-1, s - w :].transpose(0, 2, 1)
                      @ coupling[1:].transpose(0, 2, 1))

    def _block_products(self, inv, x) -> np.ndarray:
        count, s, _ = inv.shape
        pad = np.zeros((count * s, x.shape[1]))
        pad[: self.n] = x
        return inv @ pad.reshape(count, s, -1)

    def solve_lower(self, x) -> np.ndarray:
        """L^-1 x for an n x c array x."""
        y = self._block_products(self.inv, x)
        # zip hands out views block by block, cheaper than indexing y per step
        for block, previous, lower in zip(y[1:], y[:-1, y.shape[1] - self.w :],
                                          self.lower[1:]):
            block -= lower @ previous
        return y.reshape(-1, x.shape[1])[: self.n]

    def solve_upper(self, x) -> np.ndarray:
        """L^-T x for an n x c array x."""
        y = self._block_products(self.inv.transpose(0, 2, 1), x)
        for block, following, upper in zip(y[-2::-1], y[:0:-1, : self.w], self.upper[::-1]):
            block -= upper @ following
        return y.reshape(-1, x.shape[1])[: self.n]


def _dense_vectors(K: SymBandMatrix, M: SymBandMatrix) -> np.ndarray:
    """Every eigenvector of the pair, from eigh of L^-1 K L^-T with M = L L^T."""
    factor = _BandCholesky(M.data, "M")
    # the eigenvectors z of L^-1 K L^-T give the pencil's as L^-T z
    z = np.linalg.eigh(factor.solve_lower(factor.solve_lower(K.to_dense()).T))[1]
    return factor.solve_upper(z)


def _persymmetric(band) -> bool:
    """Whether J A J = A bit for bit, J the reversal: entry (i + k, i) mirrors
    to (n-1-i, n-1-i-k), so each stored diagonal must equal its reverse."""
    n = band.shape[1]
    return all(np.array_equal(d[: n - k], d[n - k - 1 :: -1]) for k, d in enumerate(band[:n]))


def _half_bands(band) -> tuple[np.ndarray, np.ndarray]:
    """Lower bands of A11 + A12 J and A11 - A12 J, the halves of the
    persymmetric A folded.

    With m = n // 2 and Q = [[I, I], [J, -J]] / sqrt 2 (a centre row e_m
    between the blocks when n is odd), Q^T A Q = diag(A11 + A12 J,
    A11 - A12 J), where A11 is the leading m x m block and (A12 J)(i, j) =
    A(i, n - 1 - j).  That corner lies within the bandwidth w of the
    fold, so both halves keep bandwidth w.  For odd n the plus half also
    holds the centre row, whose off-diagonal entries carry a factor sqrt 2.
    """
    n = band.shape[1]
    m = n // 2
    w = min(len(band), n) - 1
    k, i = np.ogrid[: w + 1, :m]
    inside = i + k < m
    # entry (i + k, i) of A11, and A(i + k, n - 1 - i) on diagonal n - 1 - 2 i - k
    a11 = np.where(inside, band[: w + 1, :m], 0.0)
    d = n - 1 - 2 * i - k
    near = inside & (d <= w)
    corner = np.zeros_like(a11)
    corner[near] = band[d[near], (i + k)[near]]
    plus, minus = a11 + corner, a11 - corner
    if n % 2:
        plus = np.pad(plus, ((0, 0), (0, 1)))
        k = np.arange(1, min(w, m) + 1)
        plus[0, m] = band[0, m]
        plus[k, m - k] = np.sqrt(2.0) * band[k, m - k]
    return plus[: min(w, n - m - 1) + 1], minus[: min(w, m - 1) + 1]


def _unfold(y, n: int, sign: float, out=None) -> np.ndarray:
    """The pencil's vectors Q [y; 0] or Q [0; y] from vectors y of the
    ``_half_bands`` pencil of ``sign``: [y; sign J y] / sqrt 2, with the
    centre row of odd n taken from the plus half and 0 in the minus one;
    y itself for sign 0, the vectors of the unfolded pencil."""
    if not sign:
        return y
    m = n // 2
    out = np.empty((n, y.shape[1])) if out is None else out
    np.multiply(y[:m], np.sqrt(0.5), out=out[:m])
    np.multiply(out[:m][::-1], sign, out=out[n - m :])
    if n % 2:
        out[m] = y[m] if sign > 0 else 0.0
    return out


def _folded_parts(K: SymBandMatrix, M: SymBandMatrix):
    """Yield the vectors of the two ``_half_bands`` pencils of a persymmetric
    pencil, each by ``_dense_vectors``, as ``_polished_pairs`` parts: the
    second half is solved only once the caller has taken the first."""
    for sign, bands in zip((1.0, -1.0), zip(_half_bands(K.data), _half_bands(M.data))):
        yield _dense_vectors(*(SymBandMatrix(h.shape[1], len(h) - 1, h) for h in bands)), sign


def _end_columns(part) -> tuple:
    """The part with only the two columns at each end of its vectors."""
    y, sign = part
    return (y[:, [0, 1, -2, -1]] if y.shape[1] > 4 else y), sign


def _polished_pairs(K: SymBandMatrix, M: SymBandMatrix, parts,
                    want_vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(v^T K v) / (v^T M v) for every vector v of ``parts``, in extended precision.

    ``parts`` lists pairs (y, sign), y the vectors of the pencil itself
    (sign 0) or of its ``_half_bands`` pencil of that sign, which are
    unfolded here.  ``_POLISH_BLOCK`` columns at a time bound the
    extended-precision buffers, and a fold unfolds no n x n/2 array
    unless its vectors are wanted.  Returns the unsorted quotients and
    the vectors: those of a single part, the unfolded halves if
    ``want_vectors``, else None.
    """
    n = K.n
    rows = _band_rows((K.data, M.data), np.longdouble)
    low = None if K.low is None and M.low is None else _band_rows(
        tuple(np.zeros_like(A.data) if A.low is None else A.low for A in (K, M)), float)
    vec = parts[0][0] if len(parts) == 1 else np.empty((n, n)) if want_vectors else None
    buffer, forms, start = None, [], 0
    for y, sign in parts:
        if sign and vec is not None:
            y, sign = _unfold(y, n, sign, out=vec[:, start : start + y.shape[1]]), 0.0
            start += y.shape[1]
        for c in range(0, y.shape[1], _POLISH_BLOCK):
            x = _unfold(y[:, c : c + _POLISH_BLOCK], n, sign)
            if buffer is None:
                # one extended-precision block, the first and widest, so the einsum casts nothing
                buffer = np.empty(x.shape, dtype=np.longdouble)
            v = buffer[:, : x.shape[1]]
            v[...] = x
            forms.append(np.einsum("ib,imb->mb", v, _band_products(rows, v)))
            if low is not None:
                # the residual bands, some 2^-53 of the whole, need only doubles
                forms[-1] += np.einsum("ib,imb->mb", x, _band_products(low, x))
    forms = np.concatenate(forms, axis=1)
    return (forms[0] / forms[1]).astype(float), vec


def _subspace_vectors(K: SymBandMatrix, M: SymBandMatrix, k: int, b: int) -> np.ndarray:
    """The k smallest M-orthonormal eigenvectors, by subspace iteration on K^-1 M."""
    n = K.n
    factor = _BandCholesky(K.data, "K")
    m_rows = _band_rows((M.data,), float)
    x = np.arange(1, n + 1) / (n + 1)
    vec = np.sin(np.pi * np.outer(x, np.arange(1, b + 1)))
    for it in range(1, _MAX_ITERATIONS + 1):
        m_vec = _band_products(m_rows, vec)[:, 0]
        y = factor.solve_upper(factor.solve_lower(m_vec))
        # K y = M vec, so y^T K y = y^T M vec
        try:
            inv = np.linalg.inv(np.linalg.cholesky(y.T @ _band_products(m_rows, y)[:, 0]))
        except np.linalg.LinAlgError:
            raise NumericError("Rayleigh-Ritz step failed: the block's Gram matrix "
                               "y^T M y is not positive definite") from None
        theta, q = np.linalg.eigh(inv @ (y.T @ m_vec) @ inv.T)
        vec = y @ (inv.T @ q)
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
                      want_vectors: bool = True, k: int | None = None, *,
                      ends: bool = False) -> Spectrum:
    """Solve K u = lambda M u for a symmetric pair with M positive definite.

    Every eigenvalue is the extended-precision Rayleigh quotient of its
    computed eigenvector, whatever the size and whether or not the
    vectors are returned, against data + low where the bands carry their
    rounding residuals ``low`` (as assembled pencils do), else against
    data.  The dense path folds a persymmetric pencil of at least
    ``_FOLD_MIN_N`` unknowns into two half-size pencils.

    Parameters
    ----------
    K, M : SymBandMatrix
        Banded symmetric matrices of equal size; neither is modified.
        The solve reads only ``data``, and the polish ``low`` as well.
    want_vectors : bool
        Also return M-orthonormal eigenvectors.
    k : int, optional
        Return only the k >= 1 smallest pairs (all of them if the pencil
        has fewer), by subspace iteration when there are more than
        2k + 8 unknowns; K must then be positive definite too.
    ends : bool
        Return only lambda_min and lambda_max, bitwise the full solve's,
        by polishing two columns at each end of each dense part: eigh's
        unpolished order may swap a near-degenerate pair.  No k or vectors.

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
        If the sizes differ, a band holds a NaN or infinity, or ``ends``
        comes with ``k`` or ``want_vectors``.
    DefinitenessError
        If M is not positive definite, checked first on every path, or on
        the subset path K (reports the failing pivot).
    NumericError
        On the subset path, if the iteration does not converge or its
        pairs miss the backward-error bound.
    ResourceError
        Before allocating, if the solve would not fit in physical memory.
    """
    if not (isinstance(K, SymBandMatrix) and isinstance(M, SymBandMatrix)):
        raise TypeError("K and M must be SymBandMatrix, got "
                        f"{type(K).__name__} and {type(M).__name__}")
    if K.n != M.n:
        raise ValueError(f"K and M differ in size: {K.n} and {M.n}")
    if ends and (want_vectors or k is not None):
        raise ValueError("ends returns two eigenvalues: it takes no k and no vectors")
    if k is not None:
        check_int("k", k, 1)
    n = K.n
    _check_solve_fits(n, max(K.bandwidth, M.bandwidth) + 1, k)
    if not (np.isfinite(K.data).all() and np.isfinite(M.data).all()):
        raise ValueError("K and M must hold finite band entries")

    b = _block_size(k, n)
    if b is None and not (n >= _FOLD_MIN_N and _persymmetric(K.data) and _persymmetric(M.data)):
        parts = [(_dense_vectors(K, M), 0.0)]  # whose reduction factors M first
    else:
        _cholesky_blocks(M.data, "M")  # M's pivot, before the fold's halves or K are factored
        parts = _folded_parts(K, M) if b is None else [(_subspace_vectors(K, M, k, b), 0.0)]
    # map drops each fold half's full vectors before the next half's eigh
    parts = list(map(_end_columns, parts) if ends else parts)
    lam, vec = _polished_pairs(K, M, parts, want_vectors)
    del parts  # the fold's halves, before the vectors are sorted
    order = np.argsort(lam, kind="stable")[:k]
    lam = lam[order]
    if b is not None:
        _check_backward_errors(K, M, lam, vec[:, order])
    if not want_vectors:
        return Spectrum(lam[[0, -1]] if ends else lam)
    if len(order) < vec.shape[1] or np.any(order != np.arange(len(order))):
        vec = vec[:, order]
    idx = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[idx, np.arange(vec.shape[1])])
    signs[signs == 0] = 1.0
    vec *= signs
    return Spectrum(lam, vec)
