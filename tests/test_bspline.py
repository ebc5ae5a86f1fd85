"""B-spline basis: values and derivatives against exact rational arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from igaspectra import ConfigurationError, KnotVector, eval_basis
from igaspectra.bspline import boundary_derivatives

from oracles import bspline_derivative, full_basis_exact, open_uniform_knots

SAMPLE_POINTS = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 7),
                 Fraction(1, 4), Fraction(9, 10))


def scatter(space, x, r):
    """Full-basis value vector from the sparse (index, value) pairs."""
    out = np.zeros(space.n_basis)
    for idx, v in eval_basis(space, x, r):
        out[idx] = v
    return out


@pytest.mark.parametrize("degree", range(1, 6))
@pytest.mark.parametrize("n_elements", (1, 2, 5))
def test_values_match_exact_rational_recursion(degree, n_elements):
    space = KnotVector(degree, n_elements)
    for x in SAMPLE_POINTS:
        want = np.array([float(v) for v in full_basis_exact(degree, n_elements, x)])
        got = scatter(space, float(x), 0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("degree", (2, 3, 4, 5))
def test_derivatives_match_exact_rational_recursion(degree):
    n_elements = 5
    space = KnotVector(degree, n_elements)
    for r in range(1, min(degree, 3) + 1):
        for x in (Fraction(1, 3), Fraction(7, 10)):
            want = np.array([float(v)
                             for v in full_basis_exact(degree, n_elements, x, r)])
            got = scatter(space, float(x), r)
            scale = max(1.0, np.abs(want).max())
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * scale)


def test_quadratic_values_frozen_point():
    # p = 2, two elements, x = 1/4: exact values 1/4, 5/8, 1/8 (and 0)
    space = KnotVector(2, 2)
    got = scatter(space, 0.25, 0)
    np.testing.assert_allclose(got, [0.25, 0.625, 0.125, 0.0], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("degree", range(1, 8))
def test_partition_of_unity_and_derivative_sums(degree):
    for n_elements in (1, 4, 7):
        space = KnotVector(degree, n_elements)
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
    space = KnotVector(degree, n_elements)
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
        space = KnotVector(degree, 6)
        n_dof = space.n_dof
        for r in range(0, degree):
            at0, at1 = boundary_derivatives(space, r)
            assert np.all(at0[degree - 1:] == 0.0)
            assert np.all(at1[: n_dof - (degree - 1)] == 0.0)


@pytest.mark.parametrize("degree", range(1, 8))
def test_every_element_piece_matches_exact_recursion(degree):
    """Both ends and one interior point of every element, every order, on
    meshes below, at and beyond 2p + 1 elements, so the left boundary,
    cardinal and right boundary pieces are each read where they hold."""
    p = degree
    for n in sorted({1, 2, 2 * p, 2 * p + 1, 3 * p + 2}):
        knots = open_uniform_knots(p, n)
        for e in range(n):
            inner = Fraction(3 * e + 1, 3 * n)
            points = (Fraction(e, n), Fraction(e + 1, n), inner)
            got = KnotVector(p, n).all_basis_ders(p + e, [float(x) for x in points], p)
            for x, ders in zip(points, got):
                for r in range(p + 1):
                    # the p-th derivative is constant on the element and jumps at its ends
                    at = inner if r == p else x
                    want = np.array([float(bspline_derivative(knots, e + j, p, at, r))
                                     for j in range(p + 1)])
                    scale = max(1.0, np.abs(want).max())
                    np.testing.assert_allclose(ders[r], want, rtol=0.0, atol=1e-13 * scale,
                                               err_msg=f"n={n} e={e} x={x} r={r}")


def test_interior_functions_vanish_at_endpoints():
    for degree in range(1, 8):
        space = KnotVector(degree, 5)
        at0, at1 = boundary_derivatives(space, 0)
        assert np.all(at0 == 0.0)
        assert np.all(at1 == 0.0)


def test_dirichlet_space_size():
    for degree, n_elements in ((1, 2), (3, 10), (7, 4), (np.int64(3), np.int32(10))):
        space = KnotVector(degree, n_elements)
        assert space.n_dof == n_elements + degree - 2
        assert space.n_basis == n_elements + degree
        assert space.h == pytest.approx(1.0 / n_elements, rel=1e-15)


def test_eval_basis_span_covers_closed_interval():
    """The first active function is the span index minus p."""
    kv = KnotVector(3, 8)
    first = {x: eval_basis(kv, x)[0][0] for x in (0.0, 0.999, 1.0, 0.125)}
    # the right endpoint is folded into the last span
    assert first == {0.0: 0, 0.999: 7, 1.0: 7, 0.125: 1}


def test_rejects_out_of_domain_and_bad_orders():
    space = KnotVector(3, 4)
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


@pytest.mark.parametrize("span,message", [
    (1, "span must be in 3..6, got 1"),
    ([3, 7], "span must be in 3..6, got 7"),
    (np.array([3.0, 4.0]), "span must be an integer, got 3.0"),
])
def test_all_basis_ders_refuses_spans_outside_the_mesh(span, message):
    # a span below p read knots before the first; one past the last element
    # would read another element's piece
    with pytest.raises(ConfigurationError) as info:
        KnotVector(3, 4).all_basis_ders(span, 0.5, 1)
    assert str(info.value) == message


@pytest.mark.parametrize("span", [[], np.array([], dtype=int), np.empty((0, 3))],
                         ids=["list", "int", "float-2d"])
def test_all_basis_ders_of_no_spans_is_empty(span):
    # an empty list is a float64 array, with no entry that is not an integer
    got = KnotVector(3, 4).all_basis_ders(span, np.zeros(np.shape(span)), 1)
    assert got.shape == np.shape(span) + (2, 4)
