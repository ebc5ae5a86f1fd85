"""End-to-end acceptance checks.

One test per headline guarantee.  Each prints a single verdict line
with the measured numbers, so a full run reads as a scorecard:

    criterion 1: PASS - ...
    criterion 2: FAIL - ...

The frozen constants below are the reference values this implementation
is expected to reproduce, together with fixed tolerances.  They are not
tuned to the code.  Where a reference cannot carry the asserted target
(a rate fitted through sub-floor errors, a matrix whose storage in
double already moves its eigenvalues past the tolerance), the check
compares against what the reference does carry, and says so in its
verdict line; the reference numbers and tolerances stay as recorded.
"""

import math
import time

import numpy as np
import pytest

import igaspectra as ig
from igaspectra.analysis import ERROR_FLOOR

from oracles import (TensorSystem, dense_generalized_eigenvalues,
                     dense_pair_overintegrated, materialize)

SQ3 = math.sqrt(3.0)
SQ30 = math.sqrt(30.0)

# closed-form rules on [-1, 1] (Gauss to four points, Lobatto to five)
REF_GAUSS = {
    1: ([0.0], [2.0]),
    2: ([-1 / SQ3, 1 / SQ3], [1.0, 1.0]),
    3: ([-math.sqrt(3 / 5), 0.0, math.sqrt(3 / 5)], [5 / 9, 8 / 9, 5 / 9]),
    4: ([-math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5)),
         -math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
         math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
         math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5))],
        [(18 - SQ30) / 36, (18 + SQ30) / 36,
         (18 + SQ30) / 36, (18 - SQ30) / 36]),
}
REF_LOBATTO = {
    2: ([-1.0, 1.0], [1.0, 1.0]),
    3: ([-1.0, 0.0, 1.0], [1 / 3, 4 / 3, 1 / 3]),
    4: ([-1.0, -math.sqrt(1 / 5), math.sqrt(1 / 5), 1.0],
        [1 / 6, 5 / 6, 5 / 6, 1 / 6]),
    5: ([-1.0, -math.sqrt(3 / 7), 0.0, math.sqrt(3 / 7), 1.0],
        [1 / 10, 49 / 90, 32 / 45, 49 / 90, 1 / 10]),
}

# 1D blended + penalty: relative eigenvalue errors for modes 1 and 6
# per mesh, and the reference lambda_1 convergence rate.  Entries marked
# refit=True have a reference rate that was fitted through sub-floor
# values; the comparable number re-applies the saturation rule to the
# reference errors themselves instead of forcing the stale fit.
REF_1D = {
    3: {"meshes": (5, 10, 20, 40), "refit": False,
        "lambda1": (3.52e-7, 1.32e-9, 5.09e-12, 1.12e-13),
        "lambda6": (3.05e-1, 3.21e-3, 9.57e-6, 3.45e-8),
        "rate1": 8.04},
    4: {"meshes": (5, 10, 20), "refit": False,
        "lambda1": (6.90e-9, 6.31e-12, 5.75e-14),
        "lambda6": (3.05e-1, 7.59e-4, 4.42e-7),
        "rate1": 10.09},
    5: {"meshes": (5, 10, 20), "refit": True,
        "lambda1": (1.13e-10, 1.15e-14, 1.27e-14),
        "lambda6": (3.06e-1, 1.41e-4, 1.72e-8),
        "rate1": 13.26},
}

# 1D mode-1 eigenfunction convergence rates: (H1 seminorm, L2 norm)
REF_FUNCTION_RATES = {3: (3.05, 4.08), 4: (4.11, 5.16), 5: (5.16, 6.22)}

# 2D/3D lambda_1 errors per mesh and reference rates.  Entries marked
# refit=True have a reference rate that was fitted through sub-floor
# values; the comparable number re-applies the saturation rule to the
# reference errors themselves instead of forcing the stale fit.
REF_MULTID = {
    (2, 3): {"meshes": (3, 6, 12, 24), "refit": False, "rate": 8.02,
             "lambda1": (2.28e-5, 8.05e-8, 3.07e-10, 1.31e-12)},
    (2, 4): {"meshes": (3, 6, 12, 24), "refit": False, "rate": 10.12,
             "lambda1": (1.32e-6, 1.09e-9, 1.07e-12, 1.35e-14)},
    (2, 5): {"meshes": (3, 6, 12, 24), "refit": True, "rate": 7.95,
             "lambda1": (6.55e-8, 1.29e-11, 5.21e-14, 9.45e-14)},
    (3, 3): {"meshes": (2, 4, 8, 16), "refit": False, "rate": 8.13,
             "lambda1": (6.78e-4, 2.15e-6, 7.94e-9, 3.06e-11)},
    (3, 4): {"meshes": (2, 4, 8, 16), "refit": True, "rate": 11.5,
             "lambda1": (1.00e-4, 6.74e-8, 5.96e-11, 3.00e-15)},
    (3, 5): {"meshes": (2, 4, 8, 16), "refit": False, "rate": 12.26,
             "lambda1": (1.28e-5, 1.79e-9, 5.30e-13, 4.66e-15)},
}

# conditioning rows: (dim, degree, n, lambda_min, lambda_max of the
# plain Gauss pencil, lambda_max of the treated pencil, reduction %)
REF_CONDITION = [
    (1, 3, 100, 9.87, 1.46e5, 9.87e4, 32.17),
    (1, 4, 100, 9.87, 2.45e5, 9.87e4, 59.69),
    (1, 5, 100, 9.87, 3.93e5, 1.00e5, 74.47),
    (2, 3, 48, 1.97e1, 6.71e4, 4.55e4, 32.17),
    (2, 4, 48, 1.97e1, 1.13e5, 4.55e4, 59.69),
    (2, 5, 48, 1.97e1, 1.81e5, 4.57e4, 74.77),
    (3, 3, 16, 2.96e1, 1.12e4, 7.58e3, 32.23),
    (3, 4, 16, 2.96e1, 1.88e4, 7.58e3, 59.72),
    (3, 5, 16, 2.96e1, 3.02e4, 7.59e3, 74.89),
]


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _pair_ratio(a, b):
    return max(a / b, b / a)


def _comparable_rate(ref, rate_key):
    """Reference lambda_1 rate and a verdict note; see the refit flag."""
    if not ref["refit"]:
        return ref[rate_key], ""
    target = ig.convergence_rates(
        1.0 / np.array(ref["meshes"]), np.array(ref["lambda1"]))
    return target, (f" (saturation rule applied to reference data, "
                    f"was {ref[rate_key]})")


def _fmt_rate(rate):
    return "saturated" if rate is None else f"{rate:.3f}"


def _monomial_defect(rule, k):
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    return abs(float(np.dot(rule.weights, rule.nodes**k)) - exact)


def test_criterion_1_quadrature_exactness():
    t0 = time.perf_counter()
    closed = 0.0
    for m, (nodes, weights) in REF_GAUSS.items():
        rule = ig.gauss_legendre(m)
        closed = max(closed, np.abs(rule.nodes - nodes).max(),
                     np.abs(rule.weights - weights).max())
    for m, (nodes, weights) in REF_LOBATTO.items():
        rule = ig.gauss_lobatto(m)
        closed = max(closed, np.abs(rule.nodes - nodes).max(),
                     np.abs(rule.weights - weights).max())
    defect = 0.0
    for m in range(1, 17):
        g = ig.gauss_legendre(m)
        defect = max(defect, max(_monomial_defect(g, k) for k in range(2 * m)))
        if m >= 2:
            lob = ig.gauss_lobatto(m)
            defect = max(defect,
                         max(_monomial_defect(lob, k) for k in range(2 * m - 2)))
    elapsed = time.perf_counter() - t0
    _verdict(1, closed <= 1e-14 and defect <= 1e-13 and elapsed < 1.0,
             f"closed forms match to {closed:.1e} (tol 1e-14), worst exactness "
             f"defect {defect:.1e} (tol 1e-13) for m <= 16, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def tables_1d():
    t0 = time.perf_counter()
    data = {p: ig.convergence_table(1, p, ref["meshes"])
            for p, ref in REF_1D.items()}
    return data, time.perf_counter() - t0


def test_criterion_2_superconvergent_eigenvalue_errors_1d(tables_1d):
    data, elapsed = tables_1d
    compared = skipped = 0
    worst_ratio = 1.0
    bad_rows = []
    rate_parts = []
    ok = True
    for p, ref in REF_1D.items():
        rows, rates = data[p]
        for key, refs in (("lambda_rel_error_mode1", ref["lambda1"]),
                          ("lambda_rel_error_mode6", ref["lambda6"])):
            for row, ref_e in zip(rows, refs):
                mine = row[key]
                if ref_e <= ERROR_FLOOR or mine <= ERROR_FLOOR:
                    skipped += 1  # noise vs noise carries no signal
                    continue
                compared += 1
                ratio = _pair_ratio(mine, ref_e)
                worst_ratio = max(worst_ratio, ratio)
                if ratio > 2.0:
                    ok = False
                    bad_rows.append((p, key, row["n_elements"], ratio))
        fitted = rates["lambda_rel_error_mode1"]
        target, note = _comparable_rate(ref, "rate1")
        if target is None:
            # the reference itself saturates: only a saturated fit agrees
            ok = ok and fitted is None
            rate_parts.append(f"p={p}: {_fmt_rate(fitted)} vs saturated{note}")
        else:
            ok = ok and fitted is not None and abs(fitted - target) <= 0.5
            rate_parts.append(f"p={p}: {_fmt_rate(fitted)} vs {target:.2f}{note}")
    _verdict(2, ok and elapsed < 30.0,
             f"errors within factor 2 of reference in {compared} comparable "
             f"rows (worst ratio {worst_ratio:.2f}, {skipped} sub-floor rows "
             f"skipped){' ' + str(bad_rows) if bad_rows else ''}; "
             f"lambda_1 rates: {'; '.join(rate_parts)}; {elapsed:.1f}s")


def test_criterion_3_eigenfunction_rates_1d(tables_1d):
    data, _ = tables_1d
    ok = True
    parts = []
    for p, (ref_h1, ref_l2) in REF_FUNCTION_RATES.items():
        _, rates = data[p]
        h1, l2 = rates["h1_error_mode1"], rates["l2_error_mode1"]
        ok = ok and h1 is not None and l2 is not None
        ok = ok and abs(h1 - ref_h1) <= 0.6 and abs(l2 - ref_l2) <= 0.6
        parts.append(f"p={p}: H1 {h1:.3f} vs {ref_h1}, L2 {l2:.3f} vs {ref_l2}")
    _verdict(3, ok, f"mode-1 rates within 0.6 of reference: {'; '.join(parts)}")


def test_criterion_4_superconvergence_carries_to_2d_and_3d():
    t0 = time.perf_counter()
    ok = True
    rate_parts = []
    compared = 0
    worst_ratio = 1.0
    for (dim, p), ref in REF_MULTID.items():
        rows, rates = ig.convergence_table(dim, p, ref["meshes"], modes=(1,))
        for row, ref_e in zip(rows[-2:], ref["lambda1"][-2:]):
            mine = row["lambda_rel_error_mode1"]
            if ref_e <= ERROR_FLOOR or mine <= ERROR_FLOOR:
                continue
            compared += 1
            ratio = _pair_ratio(mine, ref_e)
            worst_ratio = max(worst_ratio, ratio)
            ok = ok and ratio <= 3.0
        fitted = rates["lambda_rel_error_mode1"]
        target, note = _comparable_rate(ref, "rate")
        ok = ok and fitted is not None and abs(fitted - target) <= 0.7
        rate_parts.append(f"d={dim} p={p}: {fitted:.2f} vs {target:.2f}{note}")
    elapsed = time.perf_counter() - t0
    _verdict(4, ok and elapsed < 300.0,
             f"two finest-mesh errors within factor 3 in {compared} comparable "
             f"rows (worst ratio {worst_ratio:.2f}); rates within 0.7: "
             f"{'; '.join(rate_parts)}; {elapsed:.1f}s")


def test_criterion_5_condition_number_reduction():
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_pp = 0.0
    ok = True
    for dim, p, n, lmin, lmax, lmax_t, red in REF_CONDITION:
        rep = ig.condition_summary(dim, p, n)
        for got, want in ((rep.lambda_min, lmin), (rep.lambda_max, lmax),
                          (rep.lambda_max_treated, lmax_t)):
            rel = abs(got - want) / want
            worst_rel = max(worst_rel, rel)
            ok = ok and rel <= 0.01
        pp = abs(rep.reduction_percent - red)
        worst_pp = max(worst_pp, pp)
        ok = ok and pp <= 0.5
    elapsed = time.perf_counter() - t0
    _verdict(5, ok and elapsed < 300.0,
             f"extreme eigenvalues of all 9 pencil pairs within 1% of "
             f"reference (worst {worst_rel:.2%}); condition-number reduction "
             f"within 0.5 points (worst off by {worst_pp:.2f}); {elapsed:.1f}s")


def _outlier_contrast(std, candidate, exact):
    """Judge ``candidate`` against the untreated ``std`` on the same mesh.

    It passes when the untreated tail/bulk ratio exceeds the candidate's,
    the candidate's tail never flags at the default 10x, and its worst
    relative eigenvalue error is below the untreated one.
    """
    m_std = ig.outlier_metric(std, exact)
    m_cand = ig.outlier_metric(candidate, exact)
    r_std = m_std.top_max / m_std.rest_max
    r_cand = m_cand.top_max / m_cand.rest_max
    e_std = ig.eigenvalue_errors(std, exact).relative_errors.max()
    e_cand = ig.eigenvalue_errors(candidate, exact).relative_errors.max()
    ok = r_std > r_cand and not m_cand.flagged and e_cand < e_std
    return ok, r_std, r_cand, e_std, e_cand


def test_criterion_6_outlier_removal():
    t0 = time.perf_counter()
    treated_ok = control_failed = True
    details = []
    controls = []
    margins_2d = []
    for dim, n in ((1, 100), (2, 20)):
        exact = ig.ExactSpectrum(dim)
        for p in (3, 4, 5):
            std = ig.solve_nd(dim, p, n, "gauss", penalty=False)
            treated = ig.solve_nd(dim, p, n, "blended", penalty=True)
            ok, r_std, r_tre, e_std, e_tre = _outlier_contrast(std, treated, exact)
            treated_ok = treated_ok and ok
            details.append(f"d={dim} p={p}: tail/bulk {r_std:.2f}x -> "
                           f"{r_tre:.2f}x, max err {e_std:.1e} -> {e_tre:.1e}")
            if dim == 2:
                margins_2d.append(r_std / r_tre)
            # negative control: blending alone leaves the boundary
            # outliers in place, so the same check must reject it
            control = ig.solve_nd(dim, p, n, "blended", penalty=False)
            c_ok, _, r_ctl, _, _ = _outlier_contrast(std, control, exact)
            control_failed = control_failed and not c_ok
            controls.append(f"d={dim} p={p}: {r_ctl:.2f}x "
                            f"{'PASS' if c_ok else 'FAIL'}")
    elapsed = time.perf_counter() - t0
    ok = treated_ok and control_failed and elapsed < 120.0
    _verdict(6, ok,
             f"in every case the treated spectrum has a lower tail/bulk ratio "
             f"than the untreated one on the same mesh, never flags at 10x "
             f"and improves the worst error ({'; '.join(details)}); the 2D "
             f"margins are thin ({min(margins_2d):.2f}-{max(margins_2d):.2f}x) "
             f"because the bulk below rank 95% already carries large errors; "
             f"negative control, blending without the penalty in the treated "
             f"role, must FAIL everywhere ({'; '.join(controls)}); "
             f"{elapsed:.1f}s")


FACTOR_BITS = 17


def _round_significand(a, bits):
    """Round every entry of ``a`` to ``bits`` significant bits."""
    frac, expo = np.frexp(a)
    return np.ldexp(np.round(np.ldexp(frac, bits)), expo - bits)


def _exact_kron_power(a, dim):
    """The dim-fold Kronecker power of ``a``, from integer significands.

    Each entry of ``a`` must be an integer times a power of two with at
    most FACTOR_BITS significant bits; the significands are multiplied
    in int64 and the exponents added, so no product is rounded.
    """
    frac, expo = np.frexp(a)
    sig = np.ldexp(frac, FACTOR_BITS)
    assert np.array_equal(sig, np.round(sig)), "entry wider than FACTOR_BITS"
    sig = sig.astype(np.int64)
    expo = expo - FACTOR_BITS
    out_sig, out_expo = sig, expo
    for _ in range(dim - 1):
        out_sig = np.kron(out_sig, sig)
        out_expo = (np.kron(out_expo, np.ones_like(expo))
                    + np.kron(np.ones_like(out_expo), expo))
    return np.ldexp(out_sig.astype(float), out_expo)


def test_criterion_7_independent_route_agreement():
    t0 = time.perf_counter()
    # (a) linear elements against the classical tridiagonals
    hat_dev = 0.0
    for n in (2, 10, 64):
        h = 1.0 / n
        space = ig.BSplineSpace.create(1, n)
        K, M = ig.assemble_1d_reference_gauss(space)
        size = n - 1
        main = np.eye(size)
        off = np.eye(size, k=1) + np.eye(size, k=-1)
        dM = np.abs(M.to_dense() - h / 6.0 * (4.0 * main + off)).max()
        dK = np.abs(K.to_dense() - 1.0 / h * (2.0 * main - off)).max()
        hat_dev = max(hat_dev, dM / (h / 6.0), dK / (2.0 / h))
    ok_a = hat_dev <= 1e-13

    # (b) separable eigenvalue route against the materialized operator.
    # Both routes get the same 1D pair with every entry rounded to
    # FACTOR_BITS significant bits, so each d-fold product in the global
    # mass has at most 3 * FACTOR_BITS <= 51 bits and is stored exactly;
    # the unrounded 3D operator is not (cond(M) ~ 1e12 there, and its
    # storage alone moves eigenvalues by ~1e-8).  The materialized pair
    # is solved by the test-side dense oracle.
    sweep = {}
    exact_mass = True
    for dim in (2, 3):
        for p in (3, 4):
            for n in (3, 4, 5):
                _, K1, M1 = ig.build_1d(p, n)
                K1, M1 = (ig.SymBandMatrix(a.n, a.bandwidth,
                                           _round_significand(a.data, FACTOR_BITS))
                          for a in (K1, M1))
                axis = ig.solve_generalized(K1, M1, want_vectors=False)
                spec = ig.spectral_sum([axis] * dim)
                Kg, Mg = materialize(TensorSystem(((K1, M1),) * dim))
                exact_mass = exact_mass and np.array_equal(
                    Mg.toarray(), _exact_kron_power(M1.to_dense(), dim))
                direct = dense_generalized_eigenvalues(Kg.toarray(), Mg.toarray())
                sweep[(dim, p, n)] = float(np.max(
                    np.abs(spec.eigenvalues - direct) / direct))
    worst_key = max(sweep, key=sweep.get)
    ok_b = exact_mass and sweep[worst_key] <= 1e-9

    # (c) production Gauss assembly against the over-resolved oracle
    mass_dev = 0.0
    for p in range(1, 8):
        for n in (4, 9):
            space = ig.BSplineSpace.create(p, n)
            _, M = ig.assemble_1d_reference_gauss(space)
            _, M_ref = dense_pair_overintegrated(space)
            mass_dev = max(mass_dev, np.abs(M.to_dense() - M_ref).max())
    ok_c = mass_dev <= 1e-12

    elapsed = time.perf_counter() - t0
    d, p, n = worst_key
    _verdict(7, ok_a and ok_b and ok_c and elapsed < 60.0,
             f"(a) hat-function matrices match closed forms to {hat_dev:.1e} "
             f"(tol 1e-13); (b) on 1D factors rounded to {FACTOR_BITS} "
             f"significant bits the materialized mass is "
             f"{'' if exact_mass else 'NOT '}the exact Kronecker product, and "
             f"separable vs materialized eigenvalues agree to "
             f"{sweep[worst_key]:.1e} (worst d={d} p={p} n={n}, tol 1e-9) "
             f"over {len(sweep)} cases; (c) mass matrices match a 20-point "
             f"oracle to {mass_dev:.1e} (tol 1e-12); {elapsed:.1f}s")


def test_criterion_8_solver_contract_up_to_n_200():
    t0 = time.perf_counter()
    cases = ((1, 200), (2, 10), (3, 25), (4, 50), (5, 100), (6, 31), (7, 200))
    worst_res = 0.0
    worst_gram = 0.0
    for p, n in cases:
        _, K, M = ig.build_1d(p, n)
        spec = ig.solve_generalized(K, M)
        Kd, Md = K.to_dense(), M.to_dense()
        lam, V = spec.eigenvalues, spec.eigenvectors
        KV = Kd @ V
        MV = Md @ V
        res = np.linalg.norm(KV - MV * lam, axis=0)
        scale = np.linalg.norm(KV, axis=0) + lam * np.linalg.norm(MV, axis=0)
        worst_res = max(worst_res, float((res / scale).max()))
        gram = V.T @ MV - np.eye(len(lam))
        worst_gram = max(worst_gram, float(np.abs(gram).max()))
    elapsed = time.perf_counter() - t0
    _verdict(8, worst_res <= 1e-9 and worst_gram <= 1e-8,
             f"worst scaled eigenpair residual {worst_res:.1e} (tol 1e-9) and "
             f"worst orthonormality defect {worst_gram:.1e} (tol 1e-8) over "
             f"{len(cases)} blended+penalty instances up to n=200; "
             f"{elapsed:.1f}s")
