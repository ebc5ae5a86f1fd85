"""Error reporting, convergence-rate fits, condition and outlier metrics."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import eigenfunction_errors_loop, smallest_sums_of_squares

from igaspectra import (ConfigurationError, ExactSpectrum, KnotVector,
                        Spectrum, condition_report, convergence_rates,
                        eigenfunction_errors, eigenvalue_errors,
                        outlier_metric, solve_1d, spectral_sum)
from igaspectra import pipeline
from igaspectra.analysis import ERROR_FLOOR
from igaspectra.pipeline import convergence_table


def test_exact_spectrum_1d_leading_values():
    lam = ExactSpectrum(1).eigenvalues(3)
    np.testing.assert_allclose(lam, [np.pi**2, 4 * np.pi**2, 9 * np.pi**2],
                               rtol=1e-15)


@pytest.mark.parametrize("dim", (2, 3))
def test_exact_spectrum_matches_brute_force_enumeration(dim):
    count = 60
    per_axis = 40 if dim == 2 else 20
    sums = sorted(sum(j * j for j in combo) for combo in
                  itertools.product(range(1, per_axis + 1), repeat=dim))
    want = np.pi**2 * np.array(sums[:count])
    got = ExactSpectrum(dim).eigenvalues(count)
    np.testing.assert_allclose(got, want, rtol=1e-13)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from((1, 2, 3)), count=st.integers(1, 1500))
def test_exact_spectrum_matches_brute_force_box(dim, count):
    # m^d tuples have every index <= m, so the count-th smallest sum is
    # at most d m^2; a tuple with an index above B exceeds that bound
    m = math.ceil(count ** (1 / dim))
    while m ** dim < count:
        m += 1
    B = math.isqrt(dim * m * m - (dim - 1))
    j2 = np.arange(1, B + 1) ** 2
    grid = sum(np.ix_(*[j2] * dim))
    want = np.sort(grid.ravel())[:count]
    got = ExactSpectrum(dim).eigenvalues(count)
    assert np.array_equal(got, np.pi**2 * want.astype(float))


def test_exact_spectrum_3d_box_stays_small():
    """250047 = 63^3 values from a box near the cube root, not the square root."""
    count = 250047
    tracemalloc.start()
    try:
        got = ExactSpectrum(3).eigenvalues(count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a square-root box (502^3 int64 sums) peaks near 1.9 GiB
    assert peak < 16 * 8 * count
    want = np.array(smallest_sums_of_squares(3, count), dtype=float)
    assert np.array_equal(got, np.pi**2 * want)


def test_exact_spectrum_3d_first_box_holds_the_count():
    """The first box, from the octant's volume, already holds the count:
    76^3 values (the rows of d = 3, p = 3, n = 75) peak per value as
    81^3 (n = 80) do, where a second box once doubled the peak (50 bytes
    per value against 26).  Whole indices round the two boxes to 2.016
    and 1.997 times the count, hence 2% of slack."""
    per_row = []
    for count in (76**3, 81**3):
        tracemalloc.start()
        try:
            ExactSpectrum(3).eigenvalues(count)
            per_row.append(tracemalloc.get_traced_memory()[1] / count)
        finally:
            tracemalloc.stop()
    assert per_row[0] <= 1.02 * per_row[1]


def test_exact_spectrum_validates_input():
    with pytest.raises(ConfigurationError, match=r"dim must be in 1\.\.3, got 4"):
        ExactSpectrum(4)
    with pytest.raises(ConfigurationError, match="count must be >= 1"):
        ExactSpectrum(1).eigenvalues(0)


def test_exact_eigenfunctions_are_unit_l2():
    u, du = ExactSpectrum(1).eigenfunction_1d(3)
    x, w = np.polynomial.legendre.leggauss(60)
    xs, ws = 0.5 * (x + 1.0), 0.5 * w
    assert np.dot(ws, u(xs)**2) == pytest.approx(1.0, rel=1e-12)
    # derivative consistency: the H1 seminorm of mode j is (j pi)^2
    assert np.dot(ws, du(xs)**2) == pytest.approx((3 * np.pi)**2, rel=1e-10)


def test_eigenvalue_errors_pair_by_rank():
    spec = solve_1d(3, 8, want_vectors=False)
    rep = eigenvalue_errors(spec, ExactSpectrum(1))
    assert rep.ranks[0] == 1 and rep.ranks[-1] == spec.n
    assert rep.rank_fraction[-1] == pytest.approx(1.0)
    j = np.arange(1, spec.n + 1)
    np.testing.assert_allclose(rep.exact, (j * np.pi)**2, rtol=1e-14)
    np.testing.assert_allclose(
        rep.relative_errors,
        np.abs(spec.eigenvalues - rep.exact) / rep.exact, rtol=1e-15)


def test_eigenfunction_errors_match_independent_recomputation():
    """Same definition, different machinery: per-point basis evaluation and
    numpy quadrature instead of the tabulated fast path."""
    degree, n = 3, 6
    spec = solve_1d(degree, n)
    space = KnotVector(degree, n)
    got = eigenfunction_errors(spec, space, (1, 2))

    from igaspectra.bspline import eval_basis
    exact = ExactSpectrum(1)
    xg, wg = np.polynomial.legendre.leggauss(24)
    h = 1.0 / n
    for k, mode in enumerate((1, 2)):
        coeff = np.zeros(space.n_dof + 2)
        coeff[1:-1] = spec.eigenvectors[:, mode - 1]
        u_ex, du_ex = exact.eigenfunction_1d(mode)

        def u_h(x, r):
            out = 0.0
            for idx, v in eval_basis(space, x, r):
                out += coeff[idx] * v
            return out

        nodes = np.concatenate([(e + 0.5) * h + 0.5 * h * xg for e in range(n)])
        weights = np.concatenate([0.5 * h * wg] * n)
        vals = np.array([u_h(x, 0) for x in nodes])
        grads = np.array([u_h(x, 1) for x in nodes])
        norm = math.sqrt(np.dot(weights, vals**2))
        sign = 1.0 if np.dot(weights, vals * u_ex(nodes)) >= 0 else -1.0
        vals *= sign / norm
        grads *= sign / norm
        l2 = math.sqrt(np.dot(weights, (vals - u_ex(nodes))**2))
        h1 = math.sqrt(np.dot(weights, (grads - du_ex(nodes))**2))
        # the two rules integrate the trigonometric part differently at
        # the 1e-15 absolute level, visible relative to the tiny l2 value
        assert got.l2[k] == pytest.approx(l2, rel=1e-7)
        assert got.h1[k] == pytest.approx(h1, rel=1e-7)


@pytest.mark.parametrize("degree", range(1, 8))
def test_eigenfunction_errors_match_element_loop_bitwise(degree):
    """The batched element sums reproduce the element-by-element loop."""
    rng = np.random.default_rng(degree)
    for n in (1, 4, 13, 60):
        space = KnotVector(degree, n)
        if space.n_dof < 1:
            continue
        spec = solve_1d(degree, n)
        noise = Spectrum(spec.eigenvalues,
                         rng.standard_normal(spec.eigenvectors.shape))
        modes = tuple(m for m in (1, 2, 5, space.n_dof) if m <= space.n_dof)
        for s in (spec, noise):
            got = eigenfunction_errors(s, space, modes)
            want = eigenfunction_errors_loop(s, space, modes)
            assert np.array_equal(got.h1, want.h1)
            assert np.array_equal(got.l2, want.l2)


def test_eigenfunction_error_spot_values():
    # regression anchors; superseded in accuracy by the rate checks
    spec = solve_1d(3, 20)
    fe = eigenfunction_errors(spec, KnotVector(3, 20), (1,))
    assert fe.h1[0] == pytest.approx(7.05e-5, rel=0.02)
    assert fe.l2[0] == pytest.approx(5.60e-7, rel=0.02)
    spec = solve_1d(4, 10)
    fe = eigenfunction_errors(spec, KnotVector(4, 10), (1,))
    assert fe.l2[0] == pytest.approx(4.72e-7, rel=0.02)


def test_eigenfunction_errors_invariant_under_vector_scaling():
    degree, n = 2, 9
    spec = solve_1d(degree, n)
    space = KnotVector(degree, n)
    base = eigenfunction_errors(spec, space, (1, 3))
    rescaled = Spectrum(spec.eigenvalues, spec.eigenvectors * -17.3)
    perturbed = eigenfunction_errors(rescaled, space, (1, 3))
    np.testing.assert_allclose(perturbed.h1, base.h1, rtol=1e-12)
    np.testing.assert_allclose(perturbed.l2, base.l2, rtol=1e-12)


def test_eigenfunction_errors_require_vectors_and_valid_modes():
    spec = solve_1d(2, 6, want_vectors=False)
    space = KnotVector(2, 6)
    with pytest.raises(ValueError):
        eigenfunction_errors(spec, space, (1,))
    spec = solve_1d(2, 6)
    with pytest.raises(ConfigurationError):
        eigenfunction_errors(spec, space, (7,))  # only 6 modes exist
    with pytest.raises(ValueError, match="eigenvector length does not match the space"):
        eigenfunction_errors(solve_1d(2, 7), space, (1,))  # 7 unknowns, not 6


def test_noise_floor_constant():
    assert ERROR_FLOOR == 1e-13


def test_rate_fit_recovers_synthetic_power_law():
    h = 1.0 / np.array([4, 8, 16, 32])
    rate = convergence_rates(h, 3.7 * h**4)
    assert rate == pytest.approx(4.0, abs=1e-10)


def test_rate_fit_stops_at_the_noise_floor():
    h = 1.0 / np.array([2, 4, 8, 16])
    # floor hit on mesh 3; the bounce back above the floor on mesh 4
    # is noise and must not re-enter the fit
    e = np.array([1e-6, 1e-10, 5e-14, 3e-13])
    rate = convergence_rates(h, e)
    assert rate == pytest.approx(math.log(1e-6 / 1e-10) / math.log(2), rel=1e-12)


def test_rate_fit_saturated_sequences_return_none():
    h = 1.0 / np.array([2, 4, 8])
    assert convergence_rates(h, np.array([5e-14, 1e-14, 2e-14])) is None
    assert convergence_rates(h, np.array([1e-6, 1e-14, 2e-14])) is None


def test_rate_fit_validates_input():
    with pytest.raises(ValueError):
        convergence_rates([0.5, 0.25], [1.0, 0.1])
    with pytest.raises(ValueError):
        convergence_rates([0.5, 0.25, 0.125], [1.0, 0.1])
    assert convergence_rates([0.5, 0.25, 0.125], [1e-3, 1e-4, 2e-14]) is not None
    # repeated or ascending meshes leave no abscissa range to fit over
    with pytest.raises(ValueError, match="strictly decrease"):
        convergence_rates([0.2, 0.2, 0.2], [1e-3, 1e-4, 1e-5])
    with pytest.raises(ValueError, match="strictly decrease"):
        convergence_rates([0.125, 0.25, 0.5], [1e-5, 1e-4, 1e-3])


@pytest.mark.parametrize("degree,meshes", [(3, (5, 10, 20, 40)),
                                           (4, (5, 10, 20)),
                                           (5, (5, 10, 20))])
def test_rates_land_in_theory_bands(degree, meshes):
    """Eigenvalue rates near 2p+2, H1 near p, L2 near p+1."""
    _, rates = convergence_table(1, degree, meshes)
    for mode in (1, 6):
        lam_rate = rates[f"lambda_rel_error_mode{mode}"]
        if lam_rate is not None:  # saturated columns carry no rate
            assert 2 * degree + 2 - 0.5 <= lam_rate <= 2 * degree + 2 + 0.8
    h1_rate = rates["h1_error_mode1"]
    l2_rate = rates["l2_error_mode1"]
    assert degree - 0.5 <= h1_rate <= degree + 1.2
    assert degree + 0.5 <= l2_rate <= degree + 1.8


def _full_sum_convergence(dim, degree, meshes, modes):
    """Reference route: convergence_table rows and rates from every N^d sum."""
    rows = []
    for n in meshes:
        axis = solve_1d(degree, n, want_vectors=False)
        rep = eigenvalue_errors(spectral_sum([axis] * dim), ExactSpectrum(dim))
        row = {"n_elements": n, "h": 1.0 / n}
        for mode in modes:
            row[f"lambda_rel_error_mode{mode}"] = float(rep.relative_errors[mode - 1])
        rows.append(row)
    h = np.array([r["h"] for r in rows])
    rates = {key: convergence_rates(h, np.array([r[key] for r in rows]))
             for key in rows[0] if key not in ("n_elements", "h")}
    return rows, rates


@pytest.mark.parametrize("dim,degree,meshes,modes", [
    (2, 3, (4, 8, 16), (1, 6)),
    (2, 5, (3, 6, 12), (1, 10)),
    (3, 3, (3, 6, 9), (1, 6)),
    (3, 4, (2, 4, 6), (1, 2, 10)),
])
def test_nd_convergence_table_matches_full_sum_route(dim, degree, meshes, modes):
    assert convergence_table(dim, degree, meshes, modes) == \
        _full_sum_convergence(dim, degree, meshes, modes)


def test_nd_mode_beyond_resolution_is_refused():
    # degree 2 on one element leaves one DOF per axis, one mode in 2D
    with pytest.raises(ConfigurationError, match="mode 3 not resolvable with 1 DOFs"):
        convergence_table(2, 2, (1, 2, 3), (3,))
    # in 1D the solve for the 3 smallest pairs returns the one there is
    with pytest.raises(ConfigurationError, match="mode 3 not resolvable with 1 DOFs"):
        convergence_table(1, 2, (1, 2, 3), (3,))


@pytest.mark.parametrize("modes", [(0, 1), (1, -2), (), (1.5,), (1, 6, 1)])
def test_convergence_table_refuses_bad_modes_before_solving(monkeypatch, modes):
    monkeypatch.setattr(pipeline, "solve_nd", lambda *a, **k: pytest.fail("solved"))
    with pytest.raises(ConfigurationError, match="--modes entr"):
        convergence_table(2, 3, (3, 6, 12), modes=modes)


@pytest.mark.parametrize("meshes", [(), (5, 10), (20, 10, 5), (5, 5, 10), (5, 10, 20.5)])
def test_convergence_table_refuses_bad_meshes_before_solving(monkeypatch, meshes):
    monkeypatch.setattr(pipeline, "solve_nd", lambda *a, **k: pytest.fail("solved"))
    with pytest.raises(ConfigurationError,
                       match="at least 3 strictly increasing|must be an integer, got 20.5"):
        convergence_table(1, 3, meshes)


@pytest.mark.parametrize("build,message", [
    (lambda: KnotVector(3, 2.5), "n_elements must be an integer, got 2.5"),
    (lambda: KnotVector(3.0, 5), "degree must be an integer, got 3.0"),
    (lambda: solve_1d(3, 2.5), "n_elements must be an integer, got 2.5"),
    (lambda: convergence_table(1, 3, (2.5, 5, 10), (1,)),
     "n_elements must be an integer, got 2.5"),
], ids=["KnotVector", "KnotVector-degree", "solve_1d", "convergence_table"])
def test_non_integer_mesh_or_degree_is_refused_before_solving(
        monkeypatch, build, message):
    monkeypatch.setattr(pipeline, "solve_generalized",
                        lambda *a, **k: pytest.fail("solved"))
    with pytest.raises(ConfigurationError, match=message):
        build()


def test_condition_report_identities():
    base = Spectrum(np.array([1.0, 4.0, 100.0]))
    same = condition_report(base, base)
    assert same.gamma == pytest.approx(100.0)
    assert same.rho == pytest.approx(1.0)
    assert same.reduction_percent == pytest.approx(0.0, abs=1e-12)

    treated = Spectrum(np.array([1.0, 10.0]))
    rep = condition_report(Spectrum(np.array([1.0, 100.0])), treated)
    assert rep.lambda_max == 100.0 and rep.lambda_max_treated == 10.0
    assert rep.rho == pytest.approx(10.0)
    assert rep.reduction_percent == pytest.approx(90.0, rel=1e-12)


def test_condition_report_rejects_nonpositive_spectra():
    good = Spectrum(np.array([1.0, 2.0]))
    bad = Spectrum(np.array([0.0, 2.0]))
    with pytest.raises(ValueError, match="invalid spectrum"):
        condition_report(bad, good)
    with pytest.raises(ValueError, match="invalid spectrum"):
        condition_report(good, Spectrum(np.array([-3.0, 2.0])))


def _spectrum_with_errors(n, rel):
    exact = ExactSpectrum(1).eigenvalues(n)
    return Spectrum(exact * (1.0 + np.asarray(rel)))


def test_outlier_metric_flags_inflated_tail():
    rel = np.full(40, 1e-6)
    rel[-2:] = 1e-4  # ceil(0.05 * 40) = 2 tail modes
    metric = outlier_metric(_spectrum_with_errors(40, rel), ExactSpectrum(1))
    assert metric.flagged
    assert metric.top_max == pytest.approx(1e-4, rel=1e-6)
    assert metric.rest_max == pytest.approx(1e-6, rel=1e-6)

    rel[-2:] = 5e-6  # below the 10x threshold
    metric = outlier_metric(_spectrum_with_errors(40, rel), ExactSpectrum(1))
    assert not metric.flagged


def test_outlier_metric_tail_size_uses_ceiling():
    # third-from-top mode inflated: inside the tail only once
    # ceil(0.05 n) reaches 3, i.e. at n = 41
    rel = np.full(40, 1e-6)
    rel[-3] = 1e-3
    assert not outlier_metric(_spectrum_with_errors(40, rel),
                              ExactSpectrum(1)).flagged
    rel = np.full(41, 1e-6)
    rel[-3] = 1e-3
    assert outlier_metric(_spectrum_with_errors(41, rel),
                          ExactSpectrum(1)).flagged


def test_outlier_metric_needs_enough_modes():
    with pytest.raises(ValueError):
        outlier_metric(_spectrum_with_errors(19, np.zeros(19)), ExactSpectrum(1))
