"""Generalized eigensolver: accuracy contracts and failure modes."""

import tracemalloc

import numpy as np
import pytest

from igaspectra import (DefinitenessError, ResourceError, Spectrum, SpectrumMeta,
                        SymBandMatrix, build_1d, solve_generalized)


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


def test_polish_toggle_changes_nothing_to_leading_order():
    _, K, M = build_1d(4, 6)
    a = solve_generalized(K, M, want_vectors=False, polish=True)
    b = solve_generalized(K, M, want_vectors=False, polish=False)
    np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=1e-8)


def test_eigenvector_sign_convention():
    _, K, M = build_1d(3, 9)
    V = solve_generalized(K, M).eigenvectors
    for i in range(V.shape[1]):
        assert V[np.abs(V[:, i]).argmax(), i] > 0.0


def test_want_vectors_false_returns_none():
    _, K, M = build_1d(2, 5)
    spec = solve_generalized(K, M, want_vectors=False)
    assert spec.eigenvectors is None


def test_meta_is_attached_unchanged():
    _, K, M = build_1d(2, 5)
    meta = SpectrumMeta(degree=2, elements=(5,), dim=1, quadrature="blended")
    assert solve_generalized(K, M, meta=meta).meta is meta


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
