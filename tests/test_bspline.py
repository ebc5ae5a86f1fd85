"""B-spline basis: values and derivatives against exact rational arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from igaspectra import BSplineSpace, ConfigurationError, KnotVector, eval_basis
from igaspectra.bspline import boundary_derivatives

from oracles import full_basis_exact

SAMPLE_POINTS = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 7),
                 Fraction(1, 4), Fraction(9, 10))


def scatter(space, x, r):
    """Full-basis value vector from the sparse (index, value) pairs."""
    out = np.zeros(space.knot_vector.n_basis)
    for idx, v in eval_basis(space, x, r):
        out[idx] = v
    return out


@pytest.mark.parametrize("degree", range(1, 6))
@pytest.mark.parametrize("n_elements", (1, 2, 5))
def test_values_match_exact_rational_recursion(degree, n_elements):
    space = BSplineSpace.create(degree, n_elements)
    for x in SAMPLE_POINTS:
        want = np.array([float(v) for v in full_basis_exact(degree, n_elements, x)])
        got = scatter(space, float(x), 0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("degree", (2, 3, 4, 5))
def test_derivatives_match_exact_rational_recursion(degree):
    n_elements = 5
    space = BSplineSpace.create(degree, n_elements)
    for r in range(1, min(degree, 3) + 1):
        for x in (Fraction(1, 3), Fraction(7, 10)):
            want = np.array([float(v)
                             for v in full_basis_exact(degree, n_elements, x, r)])
            got = scatter(space, float(x), r)
            scale = max(1.0, np.abs(want).max())
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * scale)


def test_quadratic_values_frozen_point():
    # p = 2, two elements, x = 1/4: exact values 1/4, 5/8, 1/8 (and 0)
    space = BSplineSpace.create(2, 2)
    got = scatter(space, 0.25, 0)
    np.testing.assert_allclose(got, [0.25, 0.625, 0.125, 0.0], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("degree", range(1, 8))
def test_partition_of_unity_and_derivative_sums(degree):
    for n_elements in (1, 4, 7):
        space = BSplineSpace.create(degree, n_elements)
        for x in (0.0, 0.123, 1.0 / 3.0, 0.5, 0.987, 1.0):
            assert scatter(space, x, 0).sum() == pytest.approx(1.0, abs=1e-12)
            for r in range(1, min(degree, 3) + 1):
                ders = scatter(space, x, r)
                # the sum of r-th derivatives is the r-th derivative of 1
                scale = max(1.0, np.abs(ders).sum())
                assert abs(ders.sum()) <= 1e-13 * scale


@pytest.mark.parametrize("degree", range(1, 8))
@pytest.mark.parametrize("n_elements", (1, 2, 3, 5))
def test_boundary_derivatives_match_exact_recursion(degree, n_elements):
    # on one element the first and the last element coincide
    space = BSplineSpace.create(degree, n_elements)
    for r in range(0, degree):
        at0, at1 = boundary_derivatives(space, r)
        want0 = np.array([float(v) for v in
                          full_basis_exact(degree, n_elements, Fraction(0), r)[1:-1]])
        want1 = np.array([float(v) for v in
                          full_basis_exact(degree, n_elements, Fraction(1), r)[1:-1]])
        scale = max(1.0, np.abs(want0).max(initial=0.0),
                    np.abs(want1).max(initial=0.0))
        np.testing.assert_allclose(at0, want0, rtol=0.0, atol=1e-13 * scale)
        np.testing.assert_allclose(at1, want1, rtol=0.0, atol=1e-13 * scale)


@pytest.mark.parametrize("degree", range(1, 8))
def test_array_evaluation_equals_scalar_calls_bitwise(degree):
    kv = KnotVector(degree, 7)
    x = np.linspace(0.0, 1.0, 29).reshape(29, 1) + np.zeros((1, 2))
    span = np.minimum((x * 7).astype(int), 6) + degree
    for n_ders in range(degree + 1):
        ders = kv.all_basis_ders(span, x, n_ders)
        assert ders.shape == (29, 2, n_ders + 1, degree + 1)
        for i, j in np.ndindex(29, 2):
            one = kv.all_basis_ders(int(span[i, j]), float(x[i, j]), n_ders)
            assert one.shape == (n_ders + 1, degree + 1)
            assert np.array_equal(ders[i, j], one)


def test_boundary_derivative_support_is_p_minus_1_functions():
    """Only the p-1 functions nearest an end see it, for orders below p."""
    for degree in (2, 3, 5, 7):
        space = BSplineSpace.create(degree, 6)
        n_dof = space.n_dof
        for r in range(0, degree):
            at0, at1 = boundary_derivatives(space, r)
            assert np.all(at0[degree - 1:] == 0.0)
            assert np.all(at1[: n_dof - (degree - 1)] == 0.0)


def test_interior_functions_vanish_at_endpoints():
    for degree in (1, 3, 6):
        space = BSplineSpace.create(degree, 5)
        at0, at1 = boundary_derivatives(space, 0)
        assert np.abs(at0).max() <= 1e-15
        assert np.abs(at1).max() <= 1e-15


def test_dirichlet_space_size():
    for degree, n_elements in ((1, 2), (3, 10), (7, 4)):
        space = BSplineSpace.create(degree, n_elements)
        assert space.n_dof == n_elements + degree - 2
        assert space.knot_vector.n_basis == n_elements + degree
        assert space.h == pytest.approx(1.0 / n_elements, rel=1e-15)


def test_find_span_covers_closed_interval():
    kv = KnotVector(3, 8)
    assert kv.find_span(0.0) == 3
    assert kv.find_span(0.999) == 3 + 7
    assert kv.find_span(1.0) == 3 + 7  # right endpoint folded into last span
    assert kv.find_span(0.125) == 4


def test_rejects_out_of_domain_and_bad_orders():
    space = BSplineSpace.create(3, 4)
    with pytest.raises(ValueError):
        eval_basis(space, 1.5, 0)
    with pytest.raises(ValueError):
        eval_basis(space, -0.01, 0)
    with pytest.raises(ValueError):
        eval_basis(space, 0.5, 4)
    with pytest.raises(ValueError):
        boundary_derivatives(space, 5)
    with pytest.raises(ConfigurationError):
        KnotVector(0, 5)
    with pytest.raises(ConfigurationError):
        KnotVector(3, 0)
