"""One guard, ``errors.check_int``, checks every integer argument of the
library: a float, a bool or an out-of-range value is a
ConfigurationError, a numpy integer is accepted."""

import contextlib

import numpy as np
import pytest

from igaspectra import (ConfigurationError, ExactSpectrum, KnotVector,
                        Spectrum, SymBandMatrix, boundary_derivatives, build_1d,
                        condition_summary, convergence_table,
                        eigenfunction_errors, eval_basis, gauss_legendre,
                        gauss_lobatto, optimal_blending, pipeline, solve_1d,
                        solve_generalized, solve_nd, spectral_sum)
from igaspectra.errors import check_int


class _Solved(Exception):
    """Raised by the stubbed eigensolver: a call got past its checks."""


def _solve_stub(*args, **kwargs):
    raise _Solved


# KnotVector(2, 6) has 6 interior functions, so modes 1..6 exist
_SPEC_6 = Spectrum(np.arange(1.0, 7.0), np.eye(6))
_AXIS = Spectrum(np.array([1.0, 4.0, 9.0]))

# (id, call taking the value, a valid value, an out-of-range value)
CALL_SITES = [
    ("KnotVector-degree", lambda v: KnotVector(v, 5), 3, 0),
    ("KnotVector-n_elements", lambda v: KnotVector(3, v), 5, 0),
    ("SymBandMatrix-n", lambda v: SymBandMatrix(v, 1), 4, 0),
    ("SymBandMatrix-bandwidth", lambda v: SymBandMatrix(4, v), 1, -1),
    ("gauss_legendre", gauss_legendre, 3, 0),
    ("gauss_lobatto", gauss_lobatto, 3, 1),
    ("optimal_blending", optimal_blending, 3, 8),
    ("eval_basis", lambda v: eval_basis(KnotVector(3, 4), 0.5, v), 1, 4),
    ("boundary_derivatives", lambda v: boundary_derivatives(KnotVector(3, 4), v), 1, 4),
    ("all_basis_ders-span", lambda v: KnotVector(3, 4).all_basis_ders(v, 0.5, 1), 4, 9),
    ("all_basis_ders-n_ders", lambda v: KnotVector(3, 4).all_basis_ders(4, 0.5, v), 1, 4),
    ("spectral_sum-k", lambda v: spectral_sum([_AXIS, _AXIS], k=v), 2, 0),
    ("solve_nd-dim", lambda v: solve_nd(v, 3, 5), 2, 4),
    ("solve_nd-k", lambda v: solve_nd(2, 3, 5, k=v), 2, 0),
    ("solve_1d-k", lambda v: solve_1d(3, 40, k=v), 6, 0),
    ("solve_generalized-k", lambda v: solve_generalized(*build_1d(3, 40)[1:], k=v), 6, 0),
    ("condition_summary-dim", lambda v: condition_summary(v, 3, 5), 2, 0),
    ("ExactSpectrum-dim", ExactSpectrum, 2, 4),
    ("ExactSpectrum.eigenvalues", lambda v: ExactSpectrum(1).eigenvalues(v), 3, 0),
    ("eigenfunction_errors-mode",
     lambda v: eigenfunction_errors(_SPEC_6, KnotVector(2, 6), (v,)), 1, 7),
    ("convergence_table-mesh", lambda v: convergence_table(1, 3, (v, 10, 20), (1,)), 5, 0),
    ("convergence_table-mode", lambda v: convergence_table(1, 3, (5, 10, 20), (v,)), 1, 0),
]


@pytest.mark.parametrize("call,good,bad", [case[1:] for case in CALL_SITES],
                         ids=[case[0] for case in CALL_SITES])
def test_integer_arguments_are_checked_before_any_solve(monkeypatch, call, good, bad):
    # the refusals come before any solve, or the stub would raise _Solved
    monkeypatch.setattr(pipeline, "solve_generalized", _solve_stub)
    for value, message in ((float(good), f"must be an integer, got {float(good)!r}"),
                           (True, "must be an integer, got True"),
                           (bad, f"must be (>= |in )[-0-9.]+, got {bad}$")):
        with pytest.raises(ConfigurationError, match=message):
            call(value)
    with contextlib.suppress(_Solved):
        call(np.int64(good))


@pytest.mark.parametrize("call,message", [
    (lambda: pipeline.solve_1d(3, "5"), "n_elements must be an integer, got '5'"),
    (lambda: pipeline.build_1d(3, "5"), "n_elements must be an integer, got '5'"),
    (lambda: pipeline.solve_1d(3.5, 10**9), "degree must be an integer, got 3.5"),
], ids=["solve_1d-str", "build_1d-str", "solve_1d-float-huge"])
def test_integers_are_checked_before_the_memory_guards(call, message):
    # the guards would do arithmetic on the value first, or refuse its size
    with pytest.raises(ConfigurationError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("value,low,high,message", [
    (2.5, 1, None, "x must be an integer, got 2.5"),
    (np.float64(3.0), 1, None, f"x must be an integer, got {np.float64(3.0)!r}"),
    (False, 0, None, "x must be an integer, got False"),
    (np.bool_(True), 1, None, f"x must be an integer, got {np.bool_(True)!r}"),
    ("3", 1, None, "x must be an integer, got '3'"),
    (0, 1, None, "x must be >= 1, got 0"),
    (4, 1, 3, "x must be in 1..3, got 4"),
    (np.int8(-1), 0, 3, "x must be in 0..3, got -1"),
])
def test_check_int_messages(value, low, high, message):
    with pytest.raises(ConfigurationError) as info:
        check_int("x", value, low, high)
    assert str(info.value) == message


@pytest.mark.parametrize("value,low,high", [(1, 1, None), (10**30, 1, None),
                                             (np.uint64(3), 1, 3), (0, 0, 0)])
def test_check_int_accepts_integers_in_range(value, low, high):
    assert check_int("x", value, low, high) is None
