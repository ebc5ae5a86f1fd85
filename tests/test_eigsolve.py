"""Generalized eigensolver: accuracy contracts and failure modes."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps

from igaspectra import (DefinitenessError, ResourceError, Spectrum, SymBandMatrix,
                        build_1d, solve_1d, solve_generalized)
from igaspectra import eigsolve
from igaspectra.eigsolve import (_DENSE_BYTES_PER_N2, _POLISH_BYTES_PER_NW,
                                 _lower_band, _rayleigh_quotients)

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
    scaled = solve_generalized(3.7 * K.to_dense(), 3.7 * M.to_dense(),
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
@pytest.mark.parametrize("storage", ["band", "dense", "sparse"])
def test_band_polish_matches_dense_rayleigh_quotients(degree, n_elements,
                                                      quadrature, storage):
    """Band-storage quotients equal the dense O(n^3) form for the same vectors."""
    _, K, M = build_1d(degree, n_elements, quadrature)
    Kd, Md = K.to_dense(), M.to_dense()
    lam, V = sla.eigh(Kd, Md, driver="gvd")
    want = np.sort(rq_polish_dense(Kd, Md, lam, V)[0])
    if storage == "band":
        Ka, Ma = K, M
    elif storage == "dense":
        Ka, Ma = Kd, Md
    else:
        Ka, Ma = sps.csr_matrix(Kd), sps.csr_matrix(Md)
    k_band = _lower_band(Ka, Kd)
    m_band = _lower_band(Ma, Md)
    got = np.sort(_rayleigh_quotients(k_band, m_band, V))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_callers_dense_matrices_are_not_overwritten():
    _, K, M = build_1d(3, 10)
    Kd, Md = K.to_dense(), M.to_dense()
    Kc, Mc = Kd.copy(), Md.copy()
    solve_generalized(Kd, Md)
    assert np.array_equal(Kd, Kc) and np.array_equal(Md, Mc)
    Kf, Mf = np.asfortranarray(Kd), np.asfortranarray(Md)
    solve_generalized(Kf, Mf, want_vectors=False)
    assert np.array_equal(Kf, Kc) and np.array_equal(Mf, Mc)


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
    K = np.eye(3)
    M = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(DefinitenessError) as err:
        solve_generalized(K, M)
    assert err.value.pivot == 2


def test_rejects_asymmetric_input():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 5))
    K = A + A.T
    M = np.eye(5)
    K_bad = K.copy()
    K_bad[0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        solve_generalized(K_bad, M)
    with pytest.raises(ValueError):
        solve_generalized(K, np.eye(4))


@pytest.mark.parametrize("which", ["K", "M"])
@pytest.mark.parametrize("i,j", [(0, 1), (100, 3), (3, 149), (149, 148)])
def test_asymmetry_is_found_in_every_row_block(which, i, j):
    _, K, M = build_1d(3, 150)  # 151 unknowns: three row blocks of 64
    pair = {"K": K.to_dense(), "M": M.to_dense()}
    pair[which][i, j] += 1e-3 * np.abs(pair[which]).max()
    with pytest.raises(ValueError, match="symmetric"):
        solve_generalized(pair["K"], pair["M"])
    with pytest.raises(ValueError, match="symmetric"):
        solve_generalized(sps.csr_matrix(pair["K"]), sps.csr_matrix(pair["M"]))


def test_band_inputs_skip_the_symmetry_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("symmetry checked")

    monkeypatch.setattr(eigsolve, "_check_symmetric", refuse)
    _, K, M = build_1d(3, 10)
    assert solve_generalized(K, M).n == K.n
    with pytest.raises(AssertionError, match="symmetry checked"):
        solve_generalized(K.to_dense(), M.to_dense())


@pytest.mark.parametrize("storage", ["band", "dense", "sparse", "full"])
def test_dense_solve_peak_stays_within_its_estimate(storage):
    _, K, M = build_1d(5, 400)
    n, width = K.n, K.bandwidth + 1
    if storage == "dense":
        K, M = K.to_dense(), M.to_dense()
    elif storage == "sparse":
        K, M = sps.csr_matrix(K.to_dense()), sps.csr_matrix(M.to_dense())
    elif storage == "full":  # every diagonal nonzero: the polish reads all n
        A = np.random.default_rng(5).standard_normal((n, n))
        K, M, width = A @ A.T, M.to_dense(), n
    tracemalloc.start()
    try:
        solve_generalized(K, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _DENSE_BYTES_PER_N2 * n * n + _POLISH_BYTES_PER_NW * n * width
    if storage != "full":
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
