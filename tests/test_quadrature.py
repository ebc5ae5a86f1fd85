"""Quadrature rules: closed forms, exactness degrees, blending identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_jacobi

from igaspectra import (ConfigurationError, gauss_legendre, gauss_lobatto,
                        map_to_element, optimal_blending)
from igaspectra.assembly import _lobatto_defect

from oracles import dispersion_series, lobatto_defect_exact, optimal_blending_exact

SQ3 = math.sqrt(3.0)
SQ30 = math.sqrt(30.0)
SQ70 = math.sqrt(70.0)

# classical closed forms on [-1, 1]
GAUSS_CLOSED = {
    1: ([0.0], [2.0]),
    2: ([-1 / SQ3, 1 / SQ3], [1.0, 1.0]),
    3: ([-math.sqrt(3 / 5), 0.0, math.sqrt(3 / 5)], [5 / 9, 8 / 9, 5 / 9]),
    4: ([-math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5)),
         -math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
         math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
         math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5))],
        [(18 - SQ30) / 36, (18 + SQ30) / 36, (18 + SQ30) / 36, (18 - SQ30) / 36]),
    5: ([-math.sqrt(5 + 2 * math.sqrt(10 / 7)) / 3,
         -math.sqrt(5 - 2 * math.sqrt(10 / 7)) / 3,
         0.0,
         math.sqrt(5 - 2 * math.sqrt(10 / 7)) / 3,
         math.sqrt(5 + 2 * math.sqrt(10 / 7)) / 3],
        [(322 - 13 * SQ70) / 900, (322 + 13 * SQ70) / 900, 128 / 225,
         (322 + 13 * SQ70) / 900, (322 - 13 * SQ70) / 900]),
}

LOBATTO_CLOSED = {
    2: ([-1.0, 1.0], [1.0, 1.0]),
    3: ([-1.0, 0.0, 1.0], [1 / 3, 4 / 3, 1 / 3]),
    4: ([-1.0, -math.sqrt(1 / 5), math.sqrt(1 / 5), 1.0],
        [1 / 6, 5 / 6, 5 / 6, 1 / 6]),
    5: ([-1.0, -math.sqrt(3 / 7), 0.0, math.sqrt(3 / 7), 1.0],
        [1 / 10, 49 / 90, 32 / 45, 49 / 90, 1 / 10]),
}

# Gauss weight of the dispersion-minimal blend per degree
OPTIMAL_GAUSS_WEIGHT = {
    1: 1 / 2,
    2: 1 / 3,
    3: -3 / 2,
    4: -79 / 5,
    5: -174.0,
    6: -91177 / 35,
    7: -105103 / 2,
}


def monomial_defect(rule, k):
    nodes, weights = rule
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    return abs(float(np.dot(weights, nodes**k)) - exact)


@pytest.mark.parametrize("m", sorted(GAUSS_CLOSED))
def test_gauss_closed_forms(m):
    got_nodes, got_weights = gauss_legendre(m)
    nodes, weights = GAUSS_CLOSED[m]
    np.testing.assert_allclose(got_nodes, nodes, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(got_weights, weights, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("m", sorted(LOBATTO_CLOSED))
def test_lobatto_closed_forms(m):
    got_nodes, got_weights = gauss_lobatto(m)
    nodes, weights = LOBATTO_CLOSED[m]
    np.testing.assert_allclose(got_nodes, nodes, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(got_weights, weights, rtol=0.0, atol=1e-14)


def test_exactly_representable_rules_are_exact():
    # the general Newton path must return these bits, not merely close ones
    nodes, weights = gauss_legendre(1)
    assert np.array_equal(nodes, [0.0]) and np.array_equal(weights, [2.0])
    nodes, weights = gauss_lobatto(2)
    assert np.array_equal(nodes, [-1.0, 1.0])
    assert np.array_equal(weights, [1.0, 1.0])
    nodes, _ = gauss_lobatto(3)
    assert np.array_equal(nodes, [-1.0, 0.0, 1.0])


@pytest.mark.parametrize("m", range(1, 17))
def test_gauss_exact_to_degree_2m_minus_1_and_not_beyond(m):
    rule = gauss_legendre(m)
    for k in range(0, 2 * m):
        assert monomial_defect(rule, k) <= 1e-13, (m, k)
    assert monomial_defect(rule, 2 * m) > 1e-13


@pytest.mark.parametrize("m", range(2, 17))
def test_lobatto_exact_to_degree_2m_minus_3_and_not_beyond(m):
    rule = gauss_lobatto(m)
    for k in range(0, 2 * m - 2):
        assert monomial_defect(rule, k) <= 1e-13, (m, k)
    assert monomial_defect(rule, 2 * m - 2) > 1e-13


@pytest.mark.parametrize("m", (2, 5, 8, 16, 32, 64))
def test_gauss_agrees_with_numpy(m):
    got_nodes, got_weights = gauss_legendre(m)
    nodes, weights = np.polynomial.legendre.leggauss(m)
    np.testing.assert_allclose(got_nodes, nodes, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(got_weights, weights, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("m", (3, 4, 5, 8, 16, 32))
def test_lobatto_interior_nodes_agree_with_scipy_jacobi(m):
    # interior nodes are the extrema of the degree m-1 Legendre polynomial,
    # i.e. the roots of the (m-2)-point Jacobi(1, 1) polynomial
    nodes, _ = gauss_lobatto(m)
    xj, _ = roots_jacobi(m - 2, 1.0, 1.0)
    np.testing.assert_allclose(nodes[1:-1], np.sort(xj), rtol=0.0, atol=1e-13)


def test_rules_are_exactly_symmetric_with_unit_mass():
    for make, start in ((gauss_legendre, 1), (gauss_lobatto, 2)):
        for m in range(start, 21):
            nodes, weights = make(m)
            assert np.array_equal(nodes, -nodes[::-1])
            assert np.array_equal(weights, weights[::-1])
            assert abs(weights.sum() - 2.0) <= 1e-13
            assert np.all(np.diff(nodes) > 0)


def test_optimal_blending_table():
    for degree, eta in OPTIMAL_GAUSS_WEIGHT.items():
        assert isinstance(optimal_blending(degree), Fraction)
        assert float(optimal_blending(degree)) == eta
    with pytest.raises(ConfigurationError):
        optimal_blending(0)
    with pytest.raises(ConfigurationError):
        optimal_blending(8)


@pytest.mark.parametrize("degree", range(1, 8))
def test_optimal_blending_is_the_dispersion_optimal_weight(degree):
    """The table equals eta derived from the Toeplitz symbols, and with
    it lambda h^2 = theta^2 + O(theta^(2p+4)): the theta^(2p+2) term of
    the Galerkin relation cancels and the next one does not."""
    eta = optimal_blending(degree)
    assert eta == optimal_blending_exact(degree)
    series = dispersion_series(degree, eta, degree + 3)
    assert series[:degree + 2] == [0, 1] + [0] * degree
    assert series[degree + 2] != 0


def test_dispersion_oracle_reproduces_known_values():
    # linear elements: 6 (1 - cos t) / (2 + cos t) = t^2 + t^4/12 + t^6/360 + ...
    assert dispersion_series(1, 1, 4) == [0, 1, Fraction(1, 12), Fraction(1, 360)]
    # the Lobatto defect by orthogonality equals the A&S closed form
    assert [lobatto_defect_exact(p) for p in range(1, 11)] == [
        _lobatto_defect(p) for p in range(1, 11)]
    # beyond the table the derivation continues, bottom-up in well under a second
    assert [optimal_blending_exact(p) for p in (8, 9, 10)] == [
        Fraction(-4137845, 3), Fraction(-319922024, 7), Fraction(-20529364481, 11)]
    # leading relative error of the optimal p = 7 blend, per theta^16
    assert dispersion_series(7, Fraction(-105103, 2), 10)[9] == Fraction(
        91067, 2667655710720000)


def test_blended_rule_keeps_lobatto_exactness_only():
    # both parts integrate degree <= 2m-3 exactly, so the blend does too;
    # at 2m-2 only the Lobatto part (weight 1 - eta) errs, by (1 - eta) E_p
    def blended_moment(degree, k):
        eta = float(optimal_blending(degree))
        g_nodes, g_weights = gauss_legendre(degree + 1)
        l_nodes, l_weights = gauss_lobatto(degree + 1)
        return (eta * np.dot(g_weights, g_nodes**k)
                + (1.0 - eta) * np.dot(l_weights, l_nodes**k))

    for degree in (2, 4):
        m = degree + 1
        for k in range(0, 2 * m - 2):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert blended_moment(degree, k) == pytest.approx(exact, abs=1e-12)
        defect = blended_moment(degree, 2 * m - 2) - 2.0 / (2 * m - 1)
        want = (1.0 - float(optimal_blending(degree))) * float(_lobatto_defect(degree))
        assert defect == pytest.approx(want, rel=1e-12)


def test_map_to_element_affine():
    nodes, weights = map_to_element(gauss_legendre(2), 0.0, 0.5)
    np.testing.assert_allclose(nodes, [0.25 - 0.25 / SQ3, 0.25 + 0.25 / SQ3],
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(weights, [0.25, 0.25], rtol=0.0, atol=1e-16)

    ident, _ = map_to_element(gauss_lobatto(4), -1.0, 1.0)
    np.testing.assert_allclose(ident, gauss_lobatto(4)[0], atol=1e-15)

    nodes, weights = map_to_element(gauss_lobatto(3), 0.2, 0.4)
    assert weights.sum() == pytest.approx(0.2, abs=1e-15)
    assert np.all((nodes >= 0.2) & (nodes <= 0.4))

    # arrays of endpoints: row e is element e, bitwise as mapped alone
    a, b = np.array([0.0, 0.2, 0.5]), np.array([0.2, 0.5, 0.9])
    row_nodes, row_weights = map_to_element(gauss_legendre(3), a, b)
    assert row_nodes.shape == row_weights.shape == (3, 3)
    for e in range(3):
        nodes, weights = map_to_element(gauss_legendre(3), float(a[e]), float(b[e]))
        assert np.array_equal(row_nodes[e], nodes)
        assert np.array_equal(row_weights[e], weights)


def test_map_to_element_rejects_degenerate_interval():
    with pytest.raises(ValueError):
        map_to_element(gauss_legendre(2), 0.5, 0.5)
    with pytest.raises(ValueError):
        map_to_element(gauss_legendre(2), 0.7, 0.2)
    with pytest.raises(ValueError):
        map_to_element(gauss_legendre(2), np.array([0.0, 0.5]), np.array([0.5, 0.5]))


def test_point_count_lower_bounds():
    with pytest.raises(ConfigurationError):
        gauss_legendre(0)
    with pytest.raises(ConfigurationError):
        gauss_lobatto(1)
