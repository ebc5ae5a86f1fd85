"""Generalized eigensolver: accuracy contracts and failure modes."""

import itertools
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
from scipy.linalg.lapack import dpotrf

from igaspectra import (DefinitenessError, KnotVector, NumericError, ResourceError,
                        Spectrum, SymBandMatrix, build_1d, convergence_table,
                        eigenfunction_errors, eigsolve, solve_1d, solve_generalized)
from igaspectra import pipeline
from igaspectra.eigsolve import (_FOLD_MIN_N, _BandCholesky, _band_products, _band_rows,
                                 _dense_vectors, _factor_block, _folded_parts,
                                 _persymmetric, _polished_pairs, _solve_bytes)

from oracles import (dense_generalized_eigenvalues, exact_pencil,
                     generalized_eigenvalues_mpmath, rq_polish_dense)


def test_linear_elements_reproduce_dispersion_closed_form():
    """Consistent-mass P1 eigenvalues have a classical closed form."""
    n = 10
    h = 1.0 / n
    _, K, M = build_1d(1, n, "gauss", penalty=False)
    spec = solve_generalized(K, M, want_vectors=False)
    j = np.arange(1, n)
    want = (6.0 / h**2) * (1.0 - np.cos(j * np.pi * h)) / (2.0 + np.cos(j * np.pi * h))
    np.testing.assert_allclose(spec.eigenvalues, want, rtol=1e-13)


_SMALL_PENCILS = [(2, 8), (3, 12), (5, 9), (7, 10)]


@pytest.mark.parametrize("degree,n_elements,k", [
    *[pytest.param(p, n, None, id=f"{p}-{n}") for p, n in _SMALL_PENCILS],
    *[pytest.param(p, n, 6, id=f"{p}-{n}-k6") for p, n in _SMALL_PENCILS + [(3, 40)]]])
def test_eigenpairs_satisfy_residual_and_orthonormality(degree, n_elements, k):
    """Full spectra, and the 6 smallest pairs: dense on the small pencils,
    by subspace iteration on the 41 unknowns of (3, 40)."""
    _, K, M = build_1d(degree, n_elements)
    spec = solve_generalized(K, M, k=k)
    assert spec.n == (K.n if k is None else min(k, K.n))
    Kd, Md = K.to_dense(), M.to_dense()
    lam, V = spec.eigenvalues, spec.eigenvectors
    assert np.all(lam > 0.0)
    assert np.all(np.diff(lam) >= 0.0)
    R = Kd @ V - (Md @ V) * lam
    # the dense reduction leaves absolute noise at the lambda_max level
    # in every column, so the residual scale is global, not per pair
    glob = np.linalg.norm(Kd, 2) + lam[-1] * np.linalg.norm(Md, 2)
    for i in range(len(lam)):
        assert np.linalg.norm(R[:, i]) <= 1e-14 * glob * np.linalg.norm(V[:, i])
    gram = V.T @ Md @ V
    assert np.abs(gram - np.eye(len(lam))).max() <= 1e-10


def test_eigenvalues_invariant_under_matrix_scaling():
    _, K, M = build_1d(3, 7)
    base = solve_generalized(K, M, want_vectors=False)
    scaled = solve_generalized(SymBandMatrix(K.n, K.bandwidth, 3.7 * K.data),
                               SymBandMatrix(M.n, M.bandwidth, 3.7 * M.data),
                               want_vectors=False)
    np.testing.assert_allclose(scaled.eigenvalues, base.eigenvalues, rtol=1e-12)


def test_eigenvalues_do_not_depend_on_want_vectors():
    # 405 unknowns, so the polish runs on a pencil of realistic size
    _, K, M = build_1d(7, 400)
    with_vectors = solve_generalized(K, M, want_vectors=True)
    values_only = solve_generalized(K, M, want_vectors=False)
    assert with_vectors.n == 405
    assert np.array_equal(with_vectors.eigenvalues, values_only.eigenvalues)


_BAND_PENCILS = [(2, 9, "gauss"), (3, 12, "blended"), (5, 9, "blended"), (7, 3, "gauss"),
                 (7, 30, "blended"), (4, 1, "blended")]


@pytest.mark.parametrize("degree,n_elements,quadrature", _BAND_PENCILS)
@pytest.mark.parametrize("storage", ["band", "padded"])
def test_band_polish_matches_dense_rayleigh_quotients(degree, n_elements,
                                                      quadrature, storage):
    """Band-storage quotients equal the dense O(n^3) form for the same vectors,
    both read from the bands and their residuals.

    "padded" stores the same pair with zero diagonals past full width,
    as a SymBandMatrix with bandwidth >= n may.
    """
    _, K, M = build_1d(degree, n_elements, quadrature)
    Kd, Md = K.to_dense(), M.to_dense()
    lam, V = sla.eigh(Kd, Md, driver="gvd")
    low = tuple(SymBandMatrix(A.n, A.bandwidth, A.low).to_dense() for A in (K, M))
    want = np.sort(rq_polish_dense(Kd, Md, lam, V, low)[0])
    if storage == "padded":
        K, M = (SymBandMatrix(A.n, A.bandwidth + A.n,
                              *(np.pad(band, ((0, A.n), (0, 0))) for band in (A.data, A.low)))
                for A in (K, M))
    got = np.sort(_polished_pairs(K, M, [(V, 0.0)], want_vectors=False)[0])
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("degree,n_elements,quadrature",
                         _BAND_PENCILS + [(1, 12, "gauss"), (6, 20, "blended")])
@pytest.mark.parametrize("storage", ["band", "padded"])
@pytest.mark.parametrize("columns", [1, 20])
def test_float64_band_products_match_the_dense_products(degree, n_elements, quadrature,
                                                        storage, columns):
    """K X and M X from the band rows agree with the dense products."""
    _, K, M = build_1d(degree, n_elements, quadrature)
    X = np.random.default_rng(degree * 100 + n_elements).standard_normal((K.n, columns))
    bands = (K.data, M.data)
    if storage == "padded":
        bands = tuple(np.pad(b, ((0, K.n), (0, 0))) for b in bands)
    got = _band_products(_band_rows(bands, float), X)
    for m, A in enumerate((K.to_dense(), M.to_dense())):
        bound = 1e-15 * np.linalg.norm(A, 2) * np.linalg.norm(X, 2)
        assert np.abs(got[:, m] - A @ X).max() <= bound


def test_callers_band_data_is_not_overwritten():
    _, K, M = build_1d(3, 10)
    Kc, Mc = K.data.copy(), M.data.copy()
    solve_generalized(K, M)
    solve_generalized(K, M, want_vectors=False)
    assert np.array_equal(K.data, Kc) and np.array_equal(M.data, Mc)


def test_eigenvector_sign_convention():
    _, K, M = build_1d(3, 9)
    V = solve_generalized(K, M).eigenvectors
    for i in range(V.shape[1]):
        assert V[np.abs(V[:, i]).argmax(), i] > 0.0


def test_want_vectors_false_returns_none():
    _, K, M = build_1d(2, 5)
    spec = solve_generalized(K, M, want_vectors=False)
    assert spec.eigenvectors is None


def test_indefinite_mass_reports_failing_pivot():
    K = SymBandMatrix(3, 0, np.ones((1, 3)))
    M = SymBandMatrix(3, 0, np.array([[1.0, -1.0, 1.0]]))
    with pytest.raises(DefinitenessError) as err:
        solve_generalized(K, M)
    assert err.value.pivot == 2


@pytest.mark.parametrize("quadrature", ["gauss", "blended"])
@pytest.mark.parametrize("row", [0, 1, 9, 19])
@pytest.mark.parametrize("diagonal,factor", [(0, -1.0), (1, 3.0)],
                         ids=["negated-diagonal", "inflated-subdiagonal"])
def test_indefinite_mass_pivot_matches_lapack_cholesky(quadrature, row,
                                                       diagonal, factor):
    """The reported pivot is the one an independent Cholesky of M fails at.

    An inflated subdiagonal entry (row + 1, row) fails a later pivot
    than the column it sits in.
    """
    _, K, M = build_1d(3, 20, quadrature)  # 21 unknowns
    M.data[diagonal, row] *= factor
    pivot = dpotrf(M.to_dense(), lower=1)[1]
    assert pivot > 0
    for k in (None, 6):  # k = 6 takes the subset path: a block of 20 < 21
        with pytest.raises(DefinitenessError) as err:
            solve_generalized(K, M, k=k)
        assert err.value.pivot == pivot


def _random_spd_band(n, bandwidth, seed):
    """A diagonally dominant, so positive definite, SymBandMatrix of ``bandwidth``,
    with random entries in the band storage past the matrix, which no solve reads."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1.0, 1.0, (bandwidth + 1, n))
    data[0] = 1.0 + np.abs(SymBandMatrix(n, bandwidth, data).to_dense()).sum(axis=1)
    return SymBandMatrix(n, bandwidth, data)


_S = _factor_block(10**4, 7)  # rows per block at bandwidth <= 16


@pytest.mark.parametrize("n", [1, _S - 1, _S, _S + 1, 3 * _S + 5])
@pytest.mark.parametrize("bandwidth", [*range(8), 20, "n"])
def test_band_cholesky_solves_match_scipy(n, bandwidth):
    """L^-1 x and L^-T L^-1 x agree with scipy's dense Cholesky solves,
    for one and several blocks, a short last block and a bandwidth >= n."""
    bandwidth = n + 2 if bandwidth == "n" else bandwidth
    band = _random_spd_band(n, bandwidth, seed=100 * n + bandwidth)
    A = band.to_dense()
    x = np.random.default_rng(n).standard_normal((n, 3))
    factor = _BandCholesky(band.data, "A")
    lower = sla.solve_triangular(sla.cholesky(A, lower=True), x, lower=True)
    np.testing.assert_allclose(factor.solve_lower(x), lower,
                               rtol=0, atol=1e-14 * np.abs(lower).max())
    full = sla.cho_solve(sla.cho_factor(A), x)
    got = factor.solve_upper(factor.solve_lower(x))
    np.testing.assert_allclose(got, full, rtol=0, atol=1e-14 * np.abs(full).max())


@pytest.mark.parametrize("row,entry", [
    (5, "diagonal"),  # inside the first block
    (_S, "diagonal"),  # the first row of the second block
    (2 * _S, "diagonal"),  # the first row of the third block
    (_S - 1, "subdiagonal"),  # fails row _S through the coupling to the first block
    (3 * _S + 3, "diagonal"),  # inside the short last block
])
def test_indefinite_mass_pivot_matches_lapack_across_blocks(row, entry):
    """The failing pivot, reported by the dense and the subset path, is
    the one dpotrf finds, wherever it sits in the block structure."""
    n = 3 * _S + 5
    K = _random_spd_band(n, 7, seed=1)
    M = _random_spd_band(n, 7, seed=2)
    if entry == "diagonal":
        M.data[0, row] = -0.5
    else:  # entry (row + 1, row) larger than the geometric mean of its diagonals
        M.data[1, row] = 2.0 * np.sqrt(M.data[0, row] * M.data[0, row + 1])
    pivot = dpotrf(M.to_dense(), lower=1)[1]
    assert pivot == (row + 2 if entry == "subdiagonal" else row + 1)
    for k in (None, 6):
        with pytest.raises(DefinitenessError) as err:
            solve_generalized(K, M, k=k)
        assert err.value.pivot == pivot


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("which", ["K", "M"])
def test_rejects_matrices_not_in_band_storage(storage, which):
    _, K, M = build_1d(3, 10)
    pair = {"K": K, "M": M}
    dense = pair[which].to_dense()
    pair[which] = dense if storage == "dense" else sps.csr_matrix(dense)
    with pytest.raises(TypeError, match="SymBandMatrix"):
        solve_generalized(pair["K"], pair["M"])


def test_rejects_pencils_of_unequal_size():
    with pytest.raises(ValueError, match="size"):
        solve_generalized(SymBandMatrix(5, 1, np.ones((2, 5))),
                          SymBandMatrix(4, 1, np.ones((2, 4))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["K", "M"])
def test_rejects_non_finite_band_entries(which, bad):
    _, K, M = build_1d(3, 10)
    pair = {"K": K, "M": M}
    pair[which].data[1, 4] = bad
    with pytest.raises(ValueError, match="finite"):
        solve_generalized(pair["K"], pair["M"])


@pytest.mark.parametrize("storage", ["band", "full"])
def test_dense_solve_peak_stays_within_its_estimate(storage):
    _, K, M = build_1d(5, 400)
    n, width = K.n, K.bandwidth + 1
    if storage == "full":  # every diagonal stored: the polish reads all n
        A = np.random.default_rng(5).standard_normal((n, n))
        A = A @ A.T
        K = SymBandMatrix(n, n - 1, np.array(
            [np.pad(np.diagonal(A, -k), (0, k)) for k in range(n)]))
        width = n
    tracemalloc.start()
    try:
        solve_generalized(K, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _solve_bytes(n, width)
    if storage == "band":
        assert peak <= 33 * n * n  # the banded polish adds next to nothing


def test_folded_values_only_solve_peaks_near_a_quarter_of_the_dense_one():
    # two half pencils: the unfolded solve of the same pair peaks at ~26 n^2
    _, K, M = build_1d(5, 400)
    n = K.n
    assert _persymmetric(K.data) and _persymmetric(M.data)
    tracemalloc.start()
    try:
        solve_generalized(K, M, want_vectors=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * n * n
    assert peak <= _solve_bytes(n, K.bandwidth + 1)


def _persymmetric_pencil(n, bandwidth, seed):
    """A random pair with J K J = K and J M J = M exactly, J the reversal.

    K has off-diagonals in [-1.1, -1] and a diagonal above their sum by
    0.01..0.11, M small positive off-diagonals, so the modes spread over
    the whole matrix as on a mesh.  (The diagonally dominant bands of
    ``_random_spd_band`` have modes localised at single rows, in pairs
    mirrored by J and split by as little as 2e-15 relative; the unfolded
    solve resolves those only to within their split.)
    """
    rng = np.random.default_rng(seed)
    pair = []
    for scale in (1.0, -0.1):
        data = np.empty((bandwidth + 1, n))
        data[1:] = scale * (-1.0 - 0.1 * rng.uniform(size=(bandwidth, n)))
        data[0] = 2.2 * bandwidth + 0.01 + 0.1 * rng.uniform(size=n)
        for k in range(min(bandwidth + 1, n)):
            data[k, : n - k] = (data[k, : n - k] + data[k, n - k - 1 :: -1]) / 2
        pair.append(SymBandMatrix(n, bandwidth, data))
    return pair


def _unfolded_values(K, M):
    """The eigenvalues of the dense path without the fold, as it runs below
    ``_FOLD_MIN_N`` unknowns: every vector from one reduction, polished."""
    return np.sort(_polished_pairs(K, M, [(_dense_vectors(K, M), 0.0)], False)[0],
                   kind="stable")


def _folded_pairs(K, M, want_vectors):
    """The unsorted pairs of the fold, at any size: both halves solved,
    unfolded and polished as the dense path does from ``_FOLD_MIN_N`` unknowns."""
    return _polished_pairs(K, M, list(_folded_parts(K, M)), want_vectors)


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


@pytest.mark.parametrize("n", [_FOLD_MIN_N, _FOLD_MIN_N + 3])
@pytest.mark.parametrize("bandwidth", range(1, 9))
def test_fold_matches_the_unfolded_solve_on_random_persymmetric_pencils(n, bandwidth):
    K, M = _persymmetric_pencil(n, bandwidth, seed=10 * n + bandwidth)
    assert _persymmetric(K.data) and _persymmetric(M.data)
    spec = solve_generalized(K, M)
    assert np.all(_ulps(spec.eigenvalues, _unfolded_values(K, M)) <= 4)
    assert np.array_equal(spec.eigenvalues,
                          solve_generalized(K, M, want_vectors=False).eigenvalues)
    Kd, Md, V = K.to_dense(), M.to_dense(), spec.eigenvectors
    R = Kd @ V - (Md @ V) * spec.eigenvalues
    scale = np.linalg.norm(Kd, 2) + spec.eigenvalues[-1] * np.linalg.norm(Md, 2)
    assert np.linalg.norm(R, axis=0).max() <= 1e-14 * scale
    assert np.abs(V.T @ Md @ V - np.eye(n)).max() <= 1e-12
    assert np.all(V[np.abs(V).argmax(axis=0), np.arange(n)] > 0)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("bandwidth", [1, 7])
def test_fold_helper_returns_the_pairs_of_small_pencils(n, bandwidth):
    """Halves of 1..5 unknowns, narrower than a band of 7 diagonals or not."""
    K, M = _persymmetric_pencil(n, bandwidth, seed=n)
    lam, V = _folded_pairs(K, M, want_vectors=True)
    Kd, Md = K.to_dense(), M.to_dense()
    want = dense_generalized_eigenvalues(Kd, Md)
    np.testing.assert_allclose(np.sort(lam), want, rtol=1e-13, atol=0)
    assert np.abs(Kd @ V - (Md @ V) * lam).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(V.T @ Md @ V - np.eye(n)).max() <= 1e-13
    assert np.array_equal(_folded_pairs(K, M, want_vectors=False)[0], lam)


@pytest.mark.parametrize("quadrature,penalty", [("gauss", False), ("blended", True)])
def test_fold_resolves_the_end_localised_top_pair(quadrature, penalty):
    """The top modes of the assembled pencils are localised at the two ends,
    a symmetric and an antisymmetric pair ~2.5e-14 apart, one from each
    half of the fold; the unfolded solve, which mixes them, agrees."""
    _, K, M = build_1d(5, 300, quadrature, penalty)
    assert K.n >= _FOLD_MIN_N and _persymmetric(K.data) and _persymmetric(M.data)
    got = solve_generalized(K, M, want_vectors=False).eigenvalues[-2:]
    assert np.all(_ulps(got, _unfolded_values(K, M)[-2:]) <= 4)


@pytest.mark.parametrize("n_elements", [20, 31, 40])
def test_fold_keeps_the_digits_of_the_40_digit_eigenvalues(n_elements):
    """The fold on p = 7 pencils of 25, 36 and 45 unknowns, treated and
    Gauss without penalty: every eigenvalue within 1 ulp of those of the
    exact pencil at 40 digits, with no step that re-resolves the
    near-degenerate pairs the two halves split."""
    for quadrature, penalty in (("blended", True), ("gauss", False)):
        _, K, M = build_1d(7, n_elements, quadrature, penalty)
        want = generalized_eigenvalues_mpmath(*exact_pencil(7, n_elements, quadrature, penalty))
        got = np.sort(_folded_pairs(K, M, want_vectors=False)[0])
        assert np.all(_ulps(got, want) <= 1), quadrature


@pytest.mark.parametrize("degree", range(1, 8))
def test_eigenvalues_are_within_1_ulp_of_the_exact_pencils(degree):
    """On 3p + 2 elements, past the 3p + 1 whose band the assembly copies,
    in both schemes with the penalty on and off: each entry of ``data``
    plus ``low`` lies within 2^-104 relative of the exact pencil's, and
    every eigenvalue within 1 ulp of the exact pencil's at 40 digits."""
    n_elements = 3 * degree + 2
    for quadrature, penalty in itertools.product(("gauss", "blended"), (False, True)):
        exact = exact_pencil(degree, n_elements, quadrature, penalty)
        _, K, M = build_1d(degree, n_elements, quadrature, penalty)
        for A, entries in zip((K, M), exact):
            hi, lo = (SymBandMatrix(A.n, A.bandwidth, band).to_dense() for band in (A.data, A.low))
            for r, c in itertools.product(range(A.n), repeat=2):
                err = Fraction(hi[r, c]) + Fraction(lo[r, c]) - entries[r][c]
                assert abs(err) <= abs(entries[r][c]) / 2**104
        got = solve_generalized(K, M, want_vectors=False).eigenvalues
        assert np.all(_ulps(got, generalized_eigenvalues_mpmath(*exact)) <= 1)


def test_pencils_the_fold_skips_take_the_unfolded_path():
    """Below ``_FOLD_MIN_N`` unknowns, and on pencils that are not persymmetric,
    the eigenvalues are bitwise those of the dense path without the fold."""
    _, small_K, small_M = build_1d(5, 120)
    _, K, M = build_1d(5, 300)
    K.data[1, 0] *= 1 + 1e-9  # one end only
    random = (_random_spd_band(200, 4, seed=3), _random_spd_band(200, 4, seed=4))
    assert small_K.n < _FOLD_MIN_N and not _persymmetric(K.data)
    for K, M in ((small_K, small_M), (K, M), random):
        got = solve_generalized(K, M, want_vectors=False).eigenvalues
        assert np.array_equal(got, _unfolded_values(K, M))


@pytest.mark.parametrize("row", [0, 77, 151])
def test_fold_reports_the_failing_pivot_of_the_full_mass(row):
    # 303 unknowns; row 151 is the centre, which only the plus half holds
    _, K, M = build_1d(5, 300)
    n = M.n
    M.data[0, [row, n - 1 - row]] *= -1.0
    assert _persymmetric(M.data)
    pivot = dpotrf(M.to_dense(), lower=1)[1]
    with pytest.raises(DefinitenessError) as err:
        solve_generalized(K, M)
    assert err.value.pivot == pivot == row + 1


@pytest.mark.parametrize("degree,n_elements,k,factored", [
    (3, 50, None, [("M", 51)]),  # unfolded: the reduction's factor reports M's pivot
    (5, 300, None, [("M", 303), ("M", 152), ("M", 151)]),  # folded: M, then its halves
    (7, 400, 6, [("M", 405), ("K", 405)]),  # subset: M, then K for the iteration
])
def test_each_solve_path_factors_the_mass_once(monkeypatch, degree, n_elements, k, factored):
    calls, factor = [], eigsolve._cholesky_blocks

    def spy(band, name):
        calls.append((name, band.shape[1]))
        return factor(band, name)

    monkeypatch.setattr(eigsolve, "_cholesky_blocks", spy)
    _, K, M = build_1d(degree, n_elements)
    solve_generalized(K, M, k=k)
    assert calls == factored


def test_spectrum_rows_solve_for_values_only(monkeypatch):
    calls = []

    def spy(K, M, want_vectors=True, k=None):
        calls.append(want_vectors)
        return solve_generalized(K, M, want_vectors, k)

    monkeypatch.setattr(pipeline, "solve_generalized", spy)
    for dim in (1, 2):
        pipeline.spectrum_rows(dim, 3, 10)
    assert calls == [False, False]


@pytest.mark.parametrize("degree", range(1, 8))
@pytest.mark.parametrize("quadrature", ["gauss", "blended"])
@pytest.mark.parametrize("penalty", [False, True])
def test_ends_are_bitwise_the_extremes_of_the_full_solve(degree, quadrature, penalty):
    """Parts of 1 to 4 columns are polished whole and wider ones at their
    two ends, on the unfolded path and on both sides of the fold.  At p = 6
    the unfolded Gauss pencil of 107 unknowns without penalty has its
    largest polished quotient in eigh's second-to-last column."""
    for unknowns in (1, 2, 3, 4, 5, 107, _FOLD_MIN_N - 1, _FOLD_MIN_N, _FOLD_MIN_N + 1, 300):
        if unknowns + 2 - degree < 1:
            continue
        _, K, M = build_1d(degree, unknowns + 2 - degree, quadrature, penalty)
        assert K.n == unknowns
        ends = solve_generalized(K, M, want_vectors=False, ends=True)
        full = solve_generalized(K, M, want_vectors=False).eigenvalues
        assert ends.eigenvectors is None
        assert np.array_equal(ends.eigenvalues, full[[0, -1]]), unknowns


def test_ends_frees_each_fold_half_before_the_next_is_solved():
    """601 unknowns fold into halves of 301 and 300: the ends solve peaks
    within 5% of one half's dense solve (1.8% over it measured), not a
    third above it with the first half's 301 x 301 vectors kept through
    the second half's eigh."""
    _, K, M = build_1d(3, 600)
    half = (SymBandMatrix(h.shape[1], len(h) - 1, h)
            for h in (eigsolve._half_bands(K.data)[0], eigsolve._half_bands(M.data)[0]))
    peaks = []
    for solve in (lambda: _dense_vectors(*half),
                  lambda: solve_generalized(K, M, want_vectors=False, ends=True)):
        tracemalloc.start()
        try:
            solve()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def test_condition_polishes_only_the_ends_of_each_pencil(monkeypatch):
    # 303 unknowns: each pencil folds into two parts of two columns per end
    widths, polish = [], eigsolve._polished_pairs

    def spy(K, M, parts, want_vectors):
        widths.append(sum(y.shape[1] for y, _ in parts))
        return polish(K, M, parts, want_vectors)

    monkeypatch.setattr(eigsolve, "_polished_pairs", spy)
    pipeline.condition_summary(3, 5, 300)
    assert len(widths) == 2 and max(widths) <= 8


@pytest.mark.parametrize("options", [{"want_vectors": False, "k": 1}, {"want_vectors": True}])
def test_ends_takes_no_k_and_no_vectors(options):
    _, K, M = build_1d(3, 10)
    with pytest.raises(ValueError, match="no k and no vectors"):
        solve_generalized(K, M, **options, ends=True)


def test_spectrum_requires_ascending_eigenvalues():
    with pytest.raises(ValueError):
        Spectrum(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        Spectrum(np.array([[1.0, 2.0]]))
    assert Spectrum(np.array([1.0, 1.0, 2.0])).n == 3


def test_dense_solve_refuses_before_allocating():
    # 10^6 unknowns: the dense pair would take 40 TB; the band data is
    # zero-filled on demand and allocated before tracing starts
    K = SymBandMatrix(10**6, 1)
    M = SymBandMatrix(10**6, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="GiB for 1000000 unknowns"):
            solve_generalized(K, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oversized_1d_solve_refuses_before_assembly():
    # 10^7 elements: the knot vector alone would take 80 MB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="for 10000001 unknowns"):
            solve_1d(3, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("degree,n_elements,k", [
    (7, 100, 6), (7, 400, 6), (7, 800, 6), (3, 1000, 3), (1, 300, 1),
    (5, 300, 10), (2, 60, 20)])
def test_subset_eigenvalues_match_the_dense_solve(degree, n_elements, k):
    """The k smallest pairs by subspace iteration: the dense first k within 2 ulps."""
    _, K, M = build_1d(degree, n_elements)
    dense = solve_generalized(K, M, want_vectors=False).eigenvalues[:k]
    subset = solve_generalized(K, M, k=k)
    assert subset.eigenvectors.shape == (K.n, k)
    assert np.all(np.abs(subset.eigenvalues - dense) <= 2 * np.finfo(float).eps * dense)
    values_only = solve_generalized(K, M, want_vectors=False, k=k)
    assert np.array_equal(values_only.eigenvalues, subset.eigenvalues)


def test_subset_eigenfunctions_carry_less_noise_than_the_dense_solve():
    # the dense reduction leaves eps * lambda_max noise in every vector; the iteration does not
    _, K, M = build_1d(7, 400)
    space = KnotVector(7, 400)
    dense = eigenfunction_errors(solve_generalized(K, M), space, (1, 6))
    subset = eigenfunction_errors(solve_generalized(K, M, k=6), space, (1, 6))
    assert np.all(subset.h1 < dense.h1) and np.all(subset.l2 < dense.l2)


@pytest.mark.parametrize("degree,n_elements,k", [(1, 2000, 1), (7, 2000, 6), (1, 201, 95)])
def test_subset_solve_peak_stays_within_its_estimate(degree, n_elements, k):
    _, K, M = build_1d(degree, n_elements)
    n = K.n
    tracemalloc.start()
    try:
        solve_generalized(K, M, k=k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _solve_bytes(n, degree + 1, k)


def test_subset_solve_refuses_before_allocating():
    # a block of 4008 vectors of 10^6 entries: 190 GB
    K = SymBandMatrix(10**6, 1)
    M = SymBandMatrix(10**6, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="subset solve of 2000 pairs would need"):
            solve_generalized(K, M, k=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_memory_guard_charges_the_path_that_runs(monkeypatch):
    """With 1 GiB of physical memory the dense solve of 8001 unknowns (2 GB)
    is refused, while convergence solves for its modes on the subset path."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**18}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(ResourceError, match="dense solve would need"):
        solve_1d(3, 8000)
    rows, _ = convergence_table(1, 3, (2000, 4000, 8000))
    assert [row["n_elements"] for row in rows] == [2000, 4000, 8000]


def test_subset_path_refuses_an_indefinite_stiffness():
    _, K, M = build_1d(3, 40)
    K.data[0, 5] *= -1.0
    assert solve_generalized(K, M).eigenvalues[0] < 0  # the dense path solves it
    with pytest.raises(NumericError, match="K is not positive definite"):
        solve_generalized(K, M, k=6)


def test_subset_iteration_stops_at_its_cap():
    # one eigenvalue of multiplicity 30: the block never separates mode k from the rest
    eye = SymBandMatrix(30, 0, np.ones((1, 30)))
    with pytest.raises(NumericError, match="did not converge"):
        solve_generalized(eye, eye, k=1)


def test_subset_pairs_must_meet_the_backward_error_bound(monkeypatch):
    monkeypatch.setattr(eigsolve, "_BACKWARD_ERROR_BOUND", 0.0)
    _, K, M = build_1d(3, 40)
    with pytest.raises(NumericError, match="backward error"):
        solve_generalized(K, M, k=6)
