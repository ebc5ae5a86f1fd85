"""Assembly of the 1D pair: quadrature handling, penalty terms, band storage."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from igaspectra import (ConfigurationError, KnotVector, ResourceError,
                        SymBandMatrix, assemble_1d, assemble_1d_reference_gauss,
                        build_1d, gauss_lobatto, optimal_blending, solve_1d)
from igaspectra import assembly
from igaspectra.assembly import _lobatto_defect
from igaspectra.bspline import boundary_derivatives
from igaspectra.pipeline import _assembly_bytes

from oracles import (band_pair_per_entry, blended_pair_mpmath,
                     blended_toeplitz_rows, dense_pair_overintegrated,
                     exact_pencil_parts, lobatto_defect_exact)


def test_hat_functions_give_classical_tridiagonals():
    n = 10
    h = 1.0 / n
    space = KnotVector(1, n)
    K, M = assemble_1d(space, 1)
    size = n - 1
    main = np.eye(size)
    off = np.eye(size, k=1) + np.eye(size, k=-1)
    np.testing.assert_allclose(M.to_dense(), h / 6.0 * (4.0 * main + off),
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(K.to_dense(), 1.0 / h * (2.0 * main - off),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("degree", (2, 3, 4, 5))
@pytest.mark.parametrize("n_elements", (4, 7))
def test_full_gauss_assembly_matches_overintegrated_oracle(degree, n_elements):
    space = KnotVector(degree, n_elements)
    K, M = assemble_1d_reference_gauss(space)
    K_ref, M_ref = dense_pair_overintegrated(space)
    np.testing.assert_allclose(M.to_dense(), M_ref, rtol=0.0,
                               atol=1e-13 * np.abs(M_ref).max())
    np.testing.assert_allclose(K.to_dense(), K_ref, rtol=0.0,
                               atol=1e-13 * np.abs(K_ref).max())


@pytest.mark.parametrize("degree,eta", [
    pytest.param(3, optimal_blending(3), id="3"),
    pytest.param(4, optimal_blending(4), id="4"),
    # eta = 0 is the Lobatto pencil alone: the closed-form E_p must match
    # an independent (p+1)-point Lobatto quadrature at every degree
    *(pytest.param(p, 0, id=f"lobatto-{p}") for p in range(1, 8))])
def test_blended_assembly_is_affine_combination_of_parts(degree, eta):
    for n_elements in (6, 11):
        space = KnotVector(degree, n_elements)
        Kb, Mb = assemble_1d(space, eta)
        Kg, Mg = assemble_1d(space, 1)
        Kl, Ml = band_pair_per_entry(space, gauss_lobatto(degree + 1), False)
        for blended, gauss, lobatto in ((Kb, Kg, Kl), (Mb, Mg, Ml)):
            want = float(eta) * gauss.data + (1.0 - float(eta)) * lobatto
            np.testing.assert_allclose(blended.data, want, rtol=0.0,
                                       atol=1e-13 * np.abs(want).max())


# E_p = Q_lobatto(t^(2p)) - 2/(2p+1) for the (p+1)-point Lobatto rule
LOBATTO_DEFECT = {1: Fraction(4, 3), 2: Fraction(4, 15), 3: Fraction(32, 525),
                  4: Fraction(32, 2205), 5: Fraction(256, 72765),
                  6: Fraction(256, 297297), 7: Fraction(4096, 19324305)}


@pytest.mark.parametrize("degree", range(1, 8))
def test_lobatto_defect_is_the_rational_closed_form(degree):
    assert _lobatto_defect(degree) == LOBATTO_DEFECT[degree]
    nodes, weights = gauss_lobatto(degree + 1)
    defect = np.dot(weights, nodes ** (2 * degree)) - 2.0 / (2 * degree + 1)
    assert defect == pytest.approx(float(LOBATTO_DEFECT[degree]), rel=1e-12)


@pytest.mark.parametrize("degree,n_elements", [(3, 6), (5, 5), (7, 5), (7, 9)])
def test_blended_pencil_matches_40_digit_assembly(degree, n_elements):
    # summed as written, the blend cancels ~5 digits in float64 at p = 7;
    # the assembled pencil must stay within a few ulp of the exact one
    K, M = assemble_1d(KnotVector(degree, n_elements),
                       optimal_blending(degree))
    K_ref, M_ref = blended_pair_mpmath(degree, n_elements)
    for A, ref in ((K.to_dense(), K_ref), (M.to_dense(), M_ref)):
        assert np.abs(A - ref).max() <= 2e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n_elements", (100, 200, 400, 800))
def test_degree_7_blended_lambda1_keeps_its_digits(n_elements):
    # the exact error is below 1e-20 here; what is left is float64 rounding
    lam = solve_1d(7, n_elements, want_vectors=False).eigenvalues[0]
    assert abs(lam - math.pi**2) / math.pi**2 <= 5e-12


def test_blending_underintegrates_mass_but_not_stiffness():
    """The scheme acts on the mass matrix only: gradients stay exact."""
    space = KnotVector(3, 4)
    Kb, Mb = assemble_1d(space, optimal_blending(3))
    K_ref, M_ref = dense_pair_overintegrated(space)
    assert np.abs(Kb.to_dense() - K_ref).max() <= 1e-13 * np.abs(K_ref).max()
    assert np.abs(Mb.to_dense() - M_ref).max() > 1e-6


@pytest.mark.parametrize("degree", (3, 4, 5, 6, 7))
def test_penalty_touches_only_corner_blocks(degree):
    space = KnotVector(degree, 8)
    n_dof = space.n_dof
    K0, M0 = assemble_1d(space, 1)
    K1, M1 = assemble_1d(space, 1, penalty=True)
    c = degree - 1  # corner block size
    for diff in (K1.to_dense() - K0.to_dense(), M1.to_dense() - M0.to_dense()):
        assert np.abs(diff[:c, :c]).max() > 0.0
        assert np.abs(diff[-c:, -c:]).max() > 0.0
        interior = diff.copy()
        interior[:c, :c] = 0.0
        interior[-c:, -c:] = 0.0
        assert np.all(interior == 0.0)


def test_penalty_is_noop_below_cubic():
    for degree in (1, 2):
        space = KnotVector(degree, 6)
        K0, M0 = assemble_1d(space, 1)
        K1, M1 = assemble_1d(space, 1, penalty=True)
        assert np.array_equal(K0.to_dense(), K1.to_dense())
        assert np.array_equal(M0.to_dense(), M1.to_dense())


@pytest.mark.parametrize("degree", range(1, 8))
@pytest.mark.parametrize("blended", (False, True), ids=("gauss", "blended"))
def test_interior_rows_match_the_exact_toeplitz_rows(degree, blended):
    """The rows the dispersion analysis of eta assumes are the assembled ones:
    away from the 2p - 1 corner columns at each end, diagonal k of K is the
    one double n k_k and of M the one double m_k / n."""
    eta = optimal_blending(degree) if blended else 1
    stiff, mass = blended_toeplitz_rows(degree, eta)
    for n in (4 * degree + 4, 500):
        K, M = assemble_1d(KnotVector(degree, n), eta, penalty=True)
        for k in range(degree + 1):
            # entry (i + k, i) sees only cardinal elements and no penalty
            inner = slice(max(0, 2 * degree - 1 - k), K.n - 2 * degree + 1)
            assert np.all(K.data[k, inner] == float(n * stiff[k]))
            assert np.all(M.data[k, inner] == float(mass[k] / n))


@pytest.mark.parametrize("degree", (3, 5, 1, 2, 4, 6, 7))
def test_penalty_matches_endpoint_derivative_outer_products(degree):
    """Reconstruct the penalty from the endpoint derivatives directly,
    with floor((p - 1) / 2) levels: none at p = 1, 2, three at p = 7."""
    n = 6
    space = KnotVector(degree, n)
    h = 1.0 / n
    K0, M0 = assemble_1d(space, 1)
    K1, M1 = assemble_1d(space, 1, penalty=True)
    dK = np.zeros((space.n_dof, space.n_dof))
    dM = np.zeros_like(dK)
    for level in range(1, (degree - 1) // 2 + 1):
        d0, d1 = boundary_derivatives(space, 2 * level)
        ca = math.pi**2 * h ** (6 * level - 3)
        cb = h ** (6 * level - 1)
        for vec in (d0, d1):
            dK += ca * np.outer(vec, vec)
            dM += cb * np.outer(vec, vec)
    np.testing.assert_allclose(K1.to_dense() - K0.to_dense(), dK, rtol=0.0,
                               atol=1e-12 * np.abs(dK).max())
    np.testing.assert_allclose(M1.to_dense() - M0.to_dense(), dM, rtol=0.0,
                               atol=1e-12 * np.abs(dM).max())


def test_assembled_matrices_are_symmetric_with_bandwidth_p():
    for degree, n in ((2, 9), (5, 7)):
        space = KnotVector(degree, n)
        K, M = assemble_1d(space, optimal_blending(degree), penalty=True)
        assert K.bandwidth == degree and M.bandwidth == degree
        for A in (K.to_dense(), M.to_dense()):
            assert np.array_equal(A, A.T)


def test_interior_stiffness_rows_annihilate_constants():
    # rows whose basis function sees neither boundary sum to zero exactly:
    # the constant lies in the span of the full partition of unity
    degree, n = 3, 12
    space = KnotVector(degree, n)
    K, _ = assemble_1d(space, 1)
    sums = K.to_dense().sum(axis=1)
    scale = np.abs(K.to_dense()).max()
    assert np.abs(sums[degree + 1:-degree - 1]).max() <= 1e-13 * scale


def test_band_matrix_storage_contract():
    with pytest.raises(ConfigurationError):
        SymBandMatrix(0, 1)
    with pytest.raises(ConfigurationError, match="band data shape mismatch"):
        SymBandMatrix(4, 1, np.zeros((3, 4)))


def test_build_refuses_an_unknown_quadrature_scheme():
    with pytest.raises(ConfigurationError, match="unknown quadrature scheme 'lobatto'"):
        build_1d(3, 10, "lobatto")


@pytest.mark.parametrize("n,bandwidth", [(1, 0), (3, 4), (3, 7), (5, 2), (6, 5)])
def test_band_matrix_to_dense_for_any_bandwidth(n, bandwidth):
    rng = np.random.default_rng(n * 10 + bandwidth)
    band = SymBandMatrix(n, bandwidth, rng.standard_normal((bandwidth + 1, n)))
    want = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - bandwidth), i + 1):
            want[i, j] = want[j, i] = band.data[i - j, j]
    assert np.array_equal(band.to_dense(), want)


def test_exact_tables_are_built_once_per_degree():
    """A mesh of more than 3p + 1 elements, whatever its size, scheme and
    penalty, takes its band from the exact tables of 3p + 1 elements,
    built once, on first use."""
    assembly._unit_bands.cache_clear()
    try:
        for eta, n, penalty in itertools.product((1, optimal_blending(7)),
                                                 (22, 200, 20000), (False, True)):
            assemble_1d(KnotVector(7, n), eta, penalty)
        info = assembly._unit_bands.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
    finally:
        assembly._unit_bands.cache_clear()


def _rounded_band(terms, degree):
    """Lower band storage of sum_j c_j A_j for ``terms`` (c_j, A_j), A_j lower
    triangles of Fractions, each entry summed exactly and rounded once."""
    n = len(terms[0][1])
    band = np.zeros((degree + 1, n))
    for k in range(min(degree + 1, n)):
        band[k, : n - k] = [float(sum(c * A[i + k][i] for c, A in terms if A[i + k][i]))
                            for i in range(n - k)]
    return band


def _pi_squared():
    with mpmath.workdps(80):
        return Fraction(str(mpmath.pi**2))


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(1, 7), n_elements=st.integers(1, 40))
# every mesh class: all elements apart, 2p + 1 and 3p + 1 elements, and beyond
@example(7, 6)
@example(7, 15)
@example(7, 22)
@example(7, 40)
def test_assembly_rounds_the_exact_pencil_once(degree, n_elements):
    """Every band entry, both schemes, pure Lobatto and a negative blend,
    penalty on and off, is the exact sum of its element and penalty terms
    rounded once."""
    assume(n_elements + degree > 2)
    K0, M0, B, levels = exact_pencil_parts(degree, n_elements)
    pi2 = _pi_squared()
    etas = (1, optimal_blending(degree), 0, Fraction(-7, 3))
    for eta, penalty in itertools.product(etas, (False, True)):
        K, M = assemble_1d(KnotVector(degree, n_elements), eta, penalty)
        on = levels if penalty else []
        K_terms = [(1, K0)] + [(pi2, k_level) for k_level, _ in on]
        M_terms = ([(1, M0), ((1 - eta) * lobatto_defect_exact(degree), B)]
                   + [(1, m_level) for _, m_level in on])
        assert np.array_equal(K.data, _rounded_band(K_terms, degree))
        assert np.array_equal(M.data, _rounded_band(M_terms, degree))


def test_pi_squared_carries_more_than_40_digits():
    assert abs(assembly._PI2 - _pi_squared()) < Fraction(1, 10**60)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 7), n_elements=st.integers(1, 101),
       blended=st.booleans(), penalty=st.booleans())
def test_assembled_pair_is_persymmetric(degree, n_elements, blended, penalty):
    # the mesh, basis and penalty are symmetric under x -> 1 - x
    assume(n_elements + degree > 2)
    eta = optimal_blending(degree) if blended else 1
    K, M = assemble_1d(KnotVector(degree, n_elements), eta, penalty)
    for A in (K.to_dense(), M.to_dense()):
        assert np.array_equal(A, A[::-1, ::-1])


@pytest.mark.parametrize("degree", range(1, 8))
def test_build_peak_stays_within_its_estimate(degree):
    for quadrature in ("gauss", "blended"):
        tracemalloc.start()
        try:
            build_1d(degree, 3000, quadrature)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _assembly_bytes(degree, 3000)


def test_oversized_build_refuses_before_allocating():
    # 10^10 elements: the knot vector alone would take 80 GB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="for 10000000000 elements"):
            build_1d(3, 10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
