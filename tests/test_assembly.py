"""Assembly of the 1D pair: quadrature handling, penalty terms, band storage."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from igaspectra import (BSplineSpace, ConfigurationError, ResourceError,
                        SymBandMatrix, assemble_1d, assemble_1d_reference_gauss,
                        build_1d, gauss_legendre, gauss_lobatto,
                        optimal_blending, solve_1d)
from igaspectra.assembly import _lobatto_defect, penalty_order
from igaspectra.bspline import boundary_derivatives
from igaspectra.pipeline import _assembly_bytes
from igaspectra.quadrature import BlendedRule

from oracles import (band_pair_per_entry, blended_pair_mpmath,
                     dense_pair_overintegrated)


def test_penalty_order_floor_table():
    assert {p: penalty_order(p) for p in range(1, 8)} == {
        1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3}


def test_hat_functions_give_classical_tridiagonals():
    n = 10
    h = 1.0 / n
    space = BSplineSpace.create(1, n)
    K, M = assemble_1d(space, gauss_legendre(2))
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
    space = BSplineSpace.create(degree, n_elements)
    K, M = assemble_1d_reference_gauss(space)
    K_ref, M_ref = dense_pair_overintegrated(space)
    np.testing.assert_allclose(M.to_dense(), M_ref, rtol=0.0,
                               atol=1e-13 * np.abs(M_ref).max())
    np.testing.assert_allclose(K.to_dense(), K_ref, rtol=0.0,
                               atol=1e-13 * np.abs(K_ref).max())


@pytest.mark.parametrize("degree", (3, 4))
def test_blended_assembly_is_affine_combination_of_parts(degree):
    space = BSplineSpace.create(degree, 6)
    m = degree + 1
    eta = optimal_blending(degree).eta
    Kb, Mb = assemble_1d(space, optimal_blending(degree))
    Kg, Mg = assemble_1d(space, gauss_legendre(m))
    Kl, Ml = assemble_1d(space, gauss_lobatto(m))
    for blended, gauss, lobatto in ((Kb, Kg, Kl), (Mb, Mg, Ml)):
        want = eta * gauss.to_dense() + (1.0 - eta) * lobatto.to_dense()
        np.testing.assert_allclose(blended.to_dense(), want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())


# E_p = Q_lobatto(t^(2p)) - 2/(2p+1) for the (p+1)-point Lobatto rule
LOBATTO_DEFECT = {1: Fraction(4, 3), 2: Fraction(4, 15), 3: Fraction(32, 525),
                  4: Fraction(32, 2205), 5: Fraction(256, 72765),
                  6: Fraction(256, 297297), 7: Fraction(4096, 19324305)}


@pytest.mark.parametrize("degree", range(1, 8))
def test_lobatto_defect_is_the_rational_closed_form(degree):
    assert _lobatto_defect(degree) == LOBATTO_DEFECT[degree]
    rule = gauss_lobatto(degree + 1)
    defect = np.dot(rule.weights, rule.nodes ** (2 * degree)) - 2.0 / (2 * degree + 1)
    assert defect == pytest.approx(float(LOBATTO_DEFECT[degree]), rel=1e-12)


@pytest.mark.parametrize("degree,n_elements", [(3, 6), (5, 5), (7, 5), (7, 9)])
def test_blended_pencil_matches_40_digit_assembly(degree, n_elements):
    # summed as written, the blend cancels ~5 digits in float64 at p = 7;
    # the assembled pencil must stay within a few ulp of the exact one
    K, M = assemble_1d(BSplineSpace.create(degree, n_elements),
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
    space = BSplineSpace.create(3, 4)
    Kb, Mb = assemble_1d(space, optimal_blending(3))
    K_ref, M_ref = dense_pair_overintegrated(space)
    assert np.abs(Kb.to_dense() - K_ref).max() <= 1e-13 * np.abs(K_ref).max()
    assert np.abs(Mb.to_dense() - M_ref).max() > 1e-6


@pytest.mark.parametrize("degree", (3, 4, 5, 6, 7))
def test_penalty_touches_only_corner_blocks(degree):
    space = BSplineSpace.create(degree, 8)
    n_dof = space.n_dof
    rule = gauss_legendre(degree + 1)
    K0, M0 = assemble_1d(space, rule)
    K1, M1 = assemble_1d(space, rule, penalty=True)
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
        space = BSplineSpace.create(degree, 6)
        rule = gauss_legendre(degree + 1)
        K0, M0 = assemble_1d(space, rule)
        K1, M1 = assemble_1d(space, rule, penalty=True)
        assert np.array_equal(K0.to_dense(), K1.to_dense())
        assert np.array_equal(M0.to_dense(), M1.to_dense())


@pytest.mark.parametrize("degree", (3, 5))
def test_penalty_matches_endpoint_derivative_outer_products(degree):
    """Reconstruct the penalty from the endpoint derivatives directly."""
    n = 6
    space = BSplineSpace.create(degree, n)
    h = 1.0 / n
    rule = gauss_legendre(degree + 1)
    K0, M0 = assemble_1d(space, rule)
    K1, M1 = assemble_1d(space, rule, penalty=True)
    dK = np.zeros((space.n_dof, space.n_dof))
    dM = np.zeros_like(dK)
    for level in range(1, penalty_order(degree) + 1):
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
        space = BSplineSpace.create(degree, n)
        K, M = assemble_1d(space, optimal_blending(degree), penalty=True)
        assert K.bandwidth == degree and M.bandwidth == degree
        for A in (K.to_dense(), M.to_dense()):
            assert np.array_equal(A, A.T)


def test_interior_stiffness_rows_annihilate_constants():
    # rows whose basis function sees neither boundary sum to zero exactly:
    # the constant lies in the span of the full partition of unity
    degree, n = 3, 12
    space = BSplineSpace.create(degree, n)
    K, _ = assemble_1d(space, gauss_legendre(4))
    sums = K.to_dense().sum(axis=1)
    scale = np.abs(K.to_dense()).max()
    assert np.abs(sums[degree + 1:-degree - 1]).max() <= 1e-13 * scale


def test_underresolved_rules_are_rejected():
    space = BSplineSpace.create(3, 4)
    with pytest.raises(ConfigurationError):
        assemble_1d(space, gauss_legendre(3))
    for rule1, rule2 in ((gauss_legendre(4), gauss_lobatto(3)),
                         (gauss_legendre(5), gauss_lobatto(5)),
                         (gauss_lobatto(4), gauss_legendre(4)),
                         (gauss_legendre(4), gauss_legendre(4))):
        with pytest.raises(ConfigurationError):
            assemble_1d(space, BlendedRule(rule1, rule2, -1.5))


def test_band_matrix_storage_contract():
    with pytest.raises(ConfigurationError):
        SymBandMatrix(0, 1)


@pytest.mark.parametrize("n,bandwidth", [(1, 0), (3, 4), (3, 7), (5, 2), (6, 5)])
def test_band_matrix_to_dense_for_any_bandwidth(n, bandwidth):
    rng = np.random.default_rng(n * 10 + bandwidth)
    band = SymBandMatrix(n, bandwidth, rng.standard_normal((bandwidth + 1, n)))
    want = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - bandwidth), i + 1):
            want[i, j] = want[j, i] = band.data[i - j, j]
    assert np.array_equal(band.to_dense(), want)


def test_basis_is_tabulated_once_per_node_not_per_point(monkeypatch):
    from igaspectra.bspline import KnotVector

    calls = []
    real = KnotVector.all_basis_ders
    monkeypatch.setattr(KnotVector, "all_basis_ders",
                        lambda self, *args: calls.append(1) or real(self, *args))
    for n in (5, 200):
        calls.clear()
        assemble_1d(BSplineSpace.create(7, n), optimal_blending(7), penalty=True)
        # 8 Gauss nodes, one p-th derivative table for the blend term,
        # and both endpoints at 3 penalty levels
        assert len(calls) == 8 + 1 + 6


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(1, 7), n_elements=st.integers(1, 40),
       penalty=st.booleans())
def test_assembly_reproduces_per_entry_oracle_bitwise(degree, n_elements, penalty):
    # plain rules only: blended pencils are checked against the 40-digit
    # assembly in test_blended_pencil_matches_40_digit_assembly
    assume(n_elements + degree > 2)
    space = BSplineSpace.create(degree, n_elements)
    rule = gauss_legendre(degree + 1)
    K, M = assemble_1d(space, rule, penalty)
    K_ref, M_ref = band_pair_per_entry(space, rule, penalty)
    assert np.array_equal(K.data, K_ref)
    assert np.array_equal(M.data, M_ref)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 7), n_elements=st.integers(1, 101),
       blended=st.booleans(), penalty=st.booleans())
def test_assembled_pair_is_persymmetric(degree, n_elements, blended, penalty):
    # the mesh, basis and penalty are symmetric under x -> 1 - x
    assume(n_elements + degree > 2)
    rule = optimal_blending(degree) if blended else gauss_legendre(degree + 1)
    K, M = assemble_1d(BSplineSpace.create(degree, n_elements), rule, penalty)
    for A in (K.to_dense(), M.to_dense()):
        assert np.abs(A - A[::-1, ::-1]).max() <= 1e-12 * np.abs(A).max()


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
