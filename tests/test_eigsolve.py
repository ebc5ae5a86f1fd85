"""Generalized eigensolver: accuracy contracts and failure modes."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
from scipy.linalg.lapack import dpotrf

from igaspectra import (DefinitenessError, ResourceError, Spectrum, SymBandMatrix,
                        build_1d, solve_1d, solve_generalized)
from igaspectra.eigsolve import (_DENSE_BYTES_PER_N2, _POLISH_BYTES_PER_NW,
                                 _rayleigh_quotients)

from oracles import rq_polish_dense


def test_linear_elements_reproduce_dispersion_closed_form():
    """Consistent-mass P1 eigenvalues have a classical closed form."""
    n = 10
    h = 1.0 / n
    _, K, M = build_1d(1, n, "gauss", penalty=False)
    spec = solve_generalized(K, M, want_vectors=False)
    j = np.arange(1, n)
    want = (6.0 / h**2) * (1.0 - np.cos(j * np.pi * h)) / (2.0 + np.cos(j * np.pi * h))
    np.testing.assert_allclose(spec.eigenvalues, want, rtol=1e-13)


@pytest.mark.parametrize("degree,n_elements", [(2, 8), (3, 12), (5, 9), (7, 10)])
def test_eigenpairs_satisfy_residual_and_orthonormality(degree, n_elements):
    _, K, M = build_1d(degree, n_elements)
    spec = solve_generalized(K, M)
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
    # 405 unknowns: above the size where the polish used to be skipped
    _, K, M = build_1d(7, 400)
    with_vectors = solve_generalized(K, M, want_vectors=True)
    values_only = solve_generalized(K, M, want_vectors=False)
    assert with_vectors.n == 405
    assert np.array_equal(with_vectors.eigenvalues, values_only.eigenvalues)


@pytest.mark.parametrize("degree,n_elements,quadrature", [
    (2, 9, "gauss"), (3, 12, "blended"), (5, 9, "blended"), (7, 3, "gauss"),
    (7, 30, "blended"), (4, 1, "blended")])
@pytest.mark.parametrize("storage", ["band", "padded"])
def test_band_polish_matches_dense_rayleigh_quotients(degree, n_elements,
                                                      quadrature, storage):
    """Band-storage quotients equal the dense O(n^3) form for the same vectors.

    "padded" stores the same pair with zero diagonals past full width,
    as a SymBandMatrix with bandwidth >= n may.
    """
    _, K, M = build_1d(degree, n_elements, quadrature)
    Kd, Md = K.to_dense(), M.to_dense()
    lam, V = sla.eigh(Kd, Md, driver="gvd")
    want = np.sort(rq_polish_dense(Kd, Md, lam, V)[0])
    k_band, m_band = K.data, M.data
    if storage == "padded":
        k_band, m_band = (np.pad(b, ((0, K.n), (0, 0))) for b in (k_band, m_band))
    got = np.sort(_rayleigh_quotients(k_band, m_band, V))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


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
    with pytest.raises(DefinitenessError) as err:
        solve_generalized(K, M)
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
    assert peak <= _DENSE_BYTES_PER_N2 * n * n + _POLISH_BYTES_PER_NW * n * width
    if storage == "band":
        assert peak <= 33 * n * n  # the banded polish adds next to nothing


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
