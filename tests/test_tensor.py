"""Tensor products: Kronecker structure, eigenvalue sums, size caps."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from igaspectra import pipeline
from igaspectra import (ConfigurationError, ResourceError, Spectrum,
                        build_1d, condition_report, condition_summary,
                        solve_1d, solve_nd, spectral_sum)

from oracles import TensorSystem, materialize


def _sym(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def test_materialize_2d_entries_follow_kronecker_sum():
    rng = np.random.default_rng(7)
    nx, ny = 3, 4
    Kx, Mx, Ky, My = (_sym(rng, n) for n in (nx, nx, ny, ny))
    K, M = materialize(TensorSystem(((Kx, Mx), (Ky, My))))
    K, M = K.toarray(), M.toarray()
    assert K.shape == (nx * ny, nx * ny)
    for ix, iy, jx, jy in itertools.product(range(nx), range(ny), repeat=2):
        i, j = ix + nx * iy, jx + nx * jy  # x index varies fastest
        assert K[i, j] == My[iy, jy] * Kx[ix, jx] + Ky[iy, jy] * Mx[ix, jx]
        assert M[i, j] == My[iy, jy] * Mx[ix, jx]


def test_materialize_3d_entries_follow_kronecker_sum():
    rng = np.random.default_rng(11)
    nx, ny, nz = 3, 4, 2
    Kx, Mx, Ky, My, Kz, Mz = (_sym(rng, n) for n in (nx, nx, ny, ny, nz, nz))
    K, M = materialize(TensorSystem(((Kx, Mx), (Ky, My), (Kz, Mz))))
    K, M = K.toarray(), M.toarray()
    ranges = (range(nx), range(ny), range(nz))
    for ix, iy, iz, jx, jy, jz in itertools.product(*ranges, *ranges):
        i = ix + nx * (iy + ny * iz)
        j = jx + nx * (jy + ny * jz)
        kw = ((Mz[iz, jz] * My[iy, jy]) * Kx[ix, jx]
              + (Mz[iz, jz] * Ky[iy, jy]) * Mx[ix, jx]
              + (Kz[iz, jz] * My[iy, jy]) * Mx[ix, jx])
        assert K[i, j] == kw
        assert M[i, j] == (Mz[iz, jz] * My[iy, jy]) * Mx[ix, jx]


def test_materialize_scalar_factors():
    k, m = 2.5, 0.75
    K, M = materialize(TensorSystem((([[k]], [[m]]), ([[k]], [[m]]))))
    assert K.toarray()[0, 0] == pytest.approx(2.0 * k * m)
    assert M.toarray()[0, 0] == pytest.approx(m * m)


def test_spectral_sum_enumerates_all_pair_sums():
    a = np.array([1.0, 3.0, 7.0])
    b = np.array([2.0, 5.0])
    spec = spectral_sum([Spectrum(a), Spectrum(b)])
    want = sorted(x + y for x in a for y in b)
    assert np.array_equal(spec.eigenvalues, np.array(want))

    c = np.array([0.25, 4.0])
    spec3 = spectral_sum([Spectrum(a), Spectrum(b), Spectrum(c)])
    want3 = sorted((x + y) + z for x in a for y in b for z in c)
    assert len(spec3.eigenvalues) == len(a) * len(b) * len(c)
    assert np.array_equal(spec3.eigenvalues, np.array(want3))


def test_spectral_sum_keeps_multiplicities():
    spec = spectral_sum([Spectrum(np.array([1.0, 2.0]))] * 2)
    assert np.array_equal(spec.eigenvalues, [2.0, 3.0, 3.0, 4.0])


def test_spectral_sum_accepts_spectra():
    axis = solve_1d(2, 3, want_vectors=False)
    spec = spectral_sum([axis, axis])
    assert spec.n == axis.n**2
    assert np.all(np.diff(spec.eigenvalues) >= 0)


@pytest.mark.parametrize("dim,degree,n_elements", [(2, 3, 4), (2, 4, 3), (3, 3, 3)])
def test_spectral_sum_agrees_with_dense_solve_of_materialized_pair(
        dim, degree, n_elements):
    """Separable eigenvalues equal those of the assembled global pencil."""
    axis = solve_1d(degree, n_elements, want_vectors=False)
    spec = spectral_sum([axis] * dim)
    _, K1, M1 = build_1d(degree, n_elements)
    K, M = materialize(TensorSystem(((K1, M1),) * dim))
    lam = np.sort(sla.eigh(K.toarray(), M.toarray(), eigvals_only=True))
    assert np.max(np.abs(spec.eigenvalues - lam) / lam) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(axes=st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=6),
                     min_size=2, max_size=3),
       k=st.integers(1, 40))
def test_spectral_sum_invariants(axes, k):
    # eighths: every sum is exact, ties are frequent
    arrays = [np.array(a) / 8.0 for a in axes]
    spectra = [Spectrum(np.sort(a)) for a in arrays]
    full = spectral_sum(spectra).eigenvalues
    assert len(full) == np.prod([len(a) for a in arrays])
    assert np.all(np.diff(full) >= 0)
    assert full[0] == sum(a.min() for a in arrays)
    assert full[-1] == sum(a.max() for a in arrays)
    assert np.array_equal(spectral_sum(spectra, k=k).eigenvalues, full[:k])


@pytest.mark.parametrize("k", (0, -1))
def test_k_below_one_is_refused(k):
    axis = Spectrum(np.arange(1.0, 9.0))
    with pytest.raises(ConfigurationError, match="k must be >= 1"):
        spectral_sum([axis, axis], k=k)
    for dim in (1, 2, 3):
        with pytest.raises(ConfigurationError, match="k must be >= 1"):
            solve_nd(dim, 3, 8, k=k)


def test_spectral_sum_refuses_before_allocating():
    axis = Spectrum(np.arange(1.0, 10_001.0))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="GiB for 1000000000000 sums"):
            spectral_sum([axis] * 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _condition_from_full_sums(dim, degree, n_elements):
    """Reference route: condition_report over every sorted N^d sum."""
    base = solve_1d(degree, n_elements, "gauss", penalty=False, want_vectors=False)
    treat = solve_1d(degree, n_elements, "blended", penalty=True, want_vectors=False)
    return condition_report(spectral_sum([base] * dim), spectral_sum([treat] * dim))


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("degree,n_elements", [(3, 12), (4, 9), (5, 7)])
def test_condition_summary_matches_full_sum_route(dim, degree, n_elements):
    assert condition_summary(dim, degree, n_elements) == \
        _condition_from_full_sums(dim, degree, n_elements)


def test_condition_summary_refuses_untabulated_degree_before_solving(monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "solve_generalized", lambda *a, **k: calls.append(a))
    with pytest.raises(ConfigurationError, match=r"degree must be in 1\.\.7, got 8"):
        condition_summary(1, 8, 20)
    assert calls == []


def test_materialize_refuses_oversized_systems():
    eye = np.eye(50)
    factors = ((eye, eye),) * 3  # 125000 rows > default cap
    with pytest.raises(ResourceError, match="spectral_sum"):
        materialize(TensorSystem(factors))
    small = TensorSystem(((np.eye(2), np.eye(2)), (np.eye(3), np.eye(3))))
    with pytest.raises(ResourceError):
        materialize(small, size_cap=5)
    K, M = materialize(small, size_cap=6)  # cap is inclusive
    assert K.shape == (6, 6)


def test_dimension_validation():
    pair = (np.eye(2), np.eye(2))
    with pytest.raises(ConfigurationError):
        TensorSystem((pair,))
    with pytest.raises(ConfigurationError):
        TensorSystem((pair, pair, pair, pair))
    with pytest.raises(ConfigurationError):
        spectral_sum([Spectrum(np.array([1.0, 2.0]))])


def test_sizes_reports_per_axis_dof():
    _, K1, M1 = build_1d(3, 4)
    system = TensorSystem(((K1, M1), (np.eye(7), np.eye(7))))
    assert system.sizes == (5, 7)
    assert system.dim == 2
