from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from henon4 import quadrature
from henon4.errors import Divergent, DomainError, Henon4Error, NonConvergence, NonFinite
from henon4.quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    integrate,
    integrate_batch,
    integrate_halfline,
)


def test_zero_integrand():
    res = integrate(lambda x: np.zeros_like(x), 0.0, 1.0)
    assert res.value == pytest.approx(0.0, abs=1e-15)


def test_cubic_polynomial():
    res = integrate(lambda x: x**3, 0.0, 1.0)
    assert res.value == pytest.approx(0.25, rel=1e-13, abs=0.0)


def test_r3_log_singularity():
    # integration by parts: int_0^1 r^3 (-log r) dr = 1/16
    res = integrate(lambda r: r**3 * (-np.log(r)), 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 16.0, rel=1e-11, abs=0.0)


def test_linearity():
    f = lambda x: np.sin(x)
    g = lambda x: x**2
    a, b = 0.3, 2.0
    lhs = integrate(lambda x: 3.0 * f(x) + 0.5 * g(x), a, b).value
    rhs = 3.0 * integrate(f, a, b).value + 0.5 * integrate(g, a, b).value
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_breakpoints_resolve_kink():
    f = lambda x: np.where(x < 0.3, x, 1.0 - x)
    exact = 0.3**2 / 2 + 0.7 * (1 - 0.3) - (1.0 - 0.3**2) / 2 + 0.3  # piecewise by hand
    exact = 0.045 + (0.7 - 0.455)  # int_0^.3 x + int_.3^1 (1-x)
    res = integrate(f, 0.0, 1.0, breakpoints=(0.3,))
    assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_invalid_interval_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(lambda x: x, 0.0, math.inf)


def test_nonfinite_integrand_raises():
    def pole(x):
        with np.errstate(divide="ignore"):
            return 1.0 / (x - 0.5)

    with pytest.raises(NonFinite):
        integrate(pole, 0.4999999999, 0.5000000001)


def test_nonintegrable_singularity_exhausts_budget():
    spec = QuadratureSpec(rel_tol=1e-10, max_subdivisions=200)
    with pytest.raises(NonConvergence):
        integrate(lambda x: 1.0 / x, 0.0, 1.0, spec)


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=0)


def test_halfline_unit_exponential():
    res = integrate_halfline(lambda t: np.exp(-t), 0.0)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_halfline_t_exp():
    res = integrate_halfline(lambda t: t * np.exp(-t), 0.0)
    assert res.value == pytest.approx(1.0, rel=1e-11)


def test_halfline_gamma_substitution():
    # int_0^inf t^{5/2} e^{-t/2} dt = Gamma(7/2) * 2^{7/2}
    exact = math.gamma(3.5) * 2**3.5
    res = integrate_halfline(lambda t: t**2.5 * np.exp(-t / 2.0), 0.0)
    assert res.value == pytest.approx(exact, rel=1e-11)
    assert res.value == pytest.approx(37.5994, rel=1e-5)


def test_halfline_polynomial_tail():
    # int_1^inf t^{-3} dt = 1/2; slow dyadic decay exercises the mapped tail
    res = integrate_halfline(lambda t: t**-3.0, 1.0)
    assert res.value == pytest.approx(0.5, rel=1e-10)


@pytest.mark.parametrize("c", [1.0, 1e-20])
def test_halfline_shifted_feature_found(c):
    # mass concentrated near t = 90 must not be missed by the mapped
    # integral, and a small scale must not loosen its relative accuracy
    res = integrate_halfline(lambda t: c * np.exp(-((t - 90.0) ** 2)), 0.0)
    exact = c * math.sqrt(math.pi)
    assert res.value == pytest.approx(exact, rel=DEFAULT_SPEC.rel_tol, abs=0.0)


def test_halfline_constant_integrand_divergent():
    with pytest.raises(Divergent):
        integrate_halfline(lambda t: np.ones_like(t), 0.0)


def test_halfline_growing_integrand_divergent():
    with pytest.raises(Divergent):
        integrate_halfline(lambda t: np.log1p(t) / (1.0 + t), 0.0)


_DIVERGENT_MESSAGE = "tail blocks non-decreasing over 8 doublings (t up to 511)"


@pytest.mark.parametrize("rate", [0.01, 1.0, 100.0])
def test_halfline_exponential_growth_divergent(rate):
    # far blocks overflow in the first round (for rate 100 from t = 3 on);
    # an overflowing block counts as growth
    with pytest.raises(Divergent) as info:
        integrate_halfline(lambda t: np.exp(rate * t), 0.0)
    assert str(info.value) == _DIVERGENT_MESSAGE


@pytest.mark.parametrize("p, exact", [(1.5, 2.0), (1.2, 5.0)])
def test_halfline_slow_algebraic_tail(p, exact):
    # g(u) = u^(p-2) is singular at u = 0, where float64 keeps resolution
    res = integrate_halfline(lambda t: (1.0 + t) ** -p, 0.0)
    assert res.value == pytest.approx(exact, rel=DEFAULT_SPEC.rel_tol, abs=0.0)


def test_halfline_tail_beyond_float_range_fails():
    # (1+t)^-1.01 needs t far beyond 1e308 before its tail is below rel_tol
    with pytest.raises(NonConvergence, match="float64 range of t"):
        integrate_halfline(lambda t: (1.0 + t) ** -1.01, 0.0)


def test_halfline_nonfinite_names_t():
    f = lambda t: np.where(t < 50.0, np.exp(-t), np.nan)
    with pytest.raises(NonFinite, match=r"near t=41\.66"):
        integrate_halfline(f, 0.0)
    # exp(t) overflows beyond t ~ 710, but the breakpoint at 1e10 leaves too
    # few blocks past it for the growth test: the overflow is reported
    with pytest.raises(NonFinite, match=r"near t=681\.66"):
        integrate_halfline(lambda t: np.exp(t), 0.0, breakpoints=(1e10,))


def test_closed_form_agreement_within_ten_rel_tol():
    # every closed-form pair used elsewhere agrees within rel_tol * 10
    cases = [
        (lambda r: r**3 * (-np.log(r)), 0.0, 1.0, 1.0 / 16.0),
        (lambda r: (1 - r**2) ** 2 * r**3, 0.0, 1.0, 1.0 / 24.0),
        (lambda r: (1 - r**2) ** 2 * r**7, 0.0, 1.0, 1.0 / 120.0),
    ]
    for f, a, b, exact in cases:
        got = integrate(f, a, b, DEFAULT_SPEC).value
        assert abs(got - exact) <= 10 * DEFAULT_SPEC.rel_tol * abs(exact)


# ---------------------------------------------------------------------------
# integrate_batch: a loop of `integrate`, in lockstep
# ---------------------------------------------------------------------------


def _batch_of(fs):
    """The batch integrand of the lone integrands `fs`."""

    def f(x, parts):
        out = np.empty_like(x)
        for i, sl in parts:
            out[sl] = fs[i](x[sl])
        return out

    return f


def _bits(res):
    return res.value.hex(), res.error_estimate.hex(), res.subdivisions_used


_SPEC_200 = QuadratureSpec(rel_tol=1e-10, max_subdivisions=200)
_CONVERGING = [
    (lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0, (0.3,)),  # kink at a breakpoint
    (lambda x: np.sin(40.0 * x) ** 2 * np.exp(-x), 0.0, 3.0, ()),  # many rounds
    (lambda x: x**-0.5, 0.0, 1.0, ()),  # bisects toward an endpoint singularity
    (lambda x: np.cos(x), -1.0, 2.0, (0.0, 1.0, 5.0)),
]
_NONCONVERGING = (lambda x: 1.0 / x, 0.0, 1.0, ())  # exhausts 200 subdivisions
_NONFINITE = (lambda x: np.where(x < 0.7, x, np.inf), 0.0, 1.0, ())  # with no warning
# np.where evaluates both branches: exp overflows and warns, the value is x
_WARNING = (lambda x: np.where(x < 2.0, x, np.exp(1000.0 * x)), 0.0, 1.0, ())
# overflows only once bisection puts nodes within 1e-3 of the kink at 0.3,
# from the fourth round on; its value stays finite
_LATE_OVERFLOW = (
    lambda x: np.abs(x - 0.3) ** 0.5 * np.minimum(np.exp(np.where(np.abs(x - 0.3) < 1e-3, 1000.0, 0.0)), 1.0),
    0.0,
    1.0,
    (),
)
# overflows in a multiply in the first round
_EARLY_OVERFLOW = (lambda x: np.where(x < 2.0, x, 1e300 * (x + 1e300)), 0.0, 1.0, ())


def _loop(problems, spec):
    """What a loop of `integrate` returns before its first failure, and that failure."""
    results = []
    for f, a, b, bps in problems:
        try:
            results.append(integrate(f, a, b, spec, bps))
        except Henon4Error as exc:
            return results, exc
    return results, None


def _batch(problems, spec):
    """`integrate_batch`'s results, recorded by `then`, and its failure."""
    got = {}
    then = lambda i, res: got.setdefault(i, res)
    try:
        integrate_batch(_batch_of([p[0] for p in problems]), [p[1:] for p in problems], spec, then)
    except Henon4Error as exc:
        return [got[i] for i in sorted(got)], exc
    assert sorted(got) == list(range(len(problems)))
    return [got[i] for i in sorted(got)], None


def _recorded(run, *args):
    """What `run(*args)` returns, and the warnings it issues, as the
    (category, message, filename, lineno) of each, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run(*args)
    return out, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


@pytest.mark.parametrize("failing", [None, _NONCONVERGING, _NONFINITE, _WARNING])
def test_batch_is_bitwise_a_loop_of_integrate(failing):
    problems = _CONVERGING + ([failing] if failing else []) + _CONVERGING[:2]
    (want, want_exc), want_warned = _recorded(_loop, problems, _SPEC_200)
    (got, got_exc), got_warned = _recorded(_batch, problems, _SPEC_200)
    assert [_bits(r) for r in got] == [_bits(r) for r in want]
    assert max(r.subdivisions_used for r in want) > 40  # a multi-round problem
    assert type(got_exc) is type(want_exc) and str(got_exc) == str(want_exc)
    assert got_warned == want_warned
    assert [w[:2] for w in want_warned] == ([(RuntimeWarning, "overflow encountered in exp")] if failing is _WARNING else [])
    if failing is None:
        outcomes = integrate_batch(_batch_of([p[0] for p in problems]), [p[1:] for p in problems], _SPEC_200)
        assert [_bits(r) for r in outcomes] == [_bits(r) for r in want]


def test_batch_raises_the_first_failure_in_input_order():
    # the NonFinite problem fails in the first round, the NonConvergence one
    # only after 200 subdivisions: input order decides, not time
    for first, second, kind in (
        (_NONCONVERGING, _NONFINITE, NonConvergence),
        (_NONFINITE, _NONCONVERGING, NonFinite),
    ):
        with pytest.raises(kind):
            integrate_batch(_batch_of([first[0], second[0]]), [first[1:], second[1:]], _SPEC_200)
    # a problem rejected before its first round fails in its place too
    with pytest.raises(NonFinite):
        integrate_batch(_batch_of([_NONFINITE[0], None]), [_NONFINITE[1:], (1.0, 0.0)])
    with pytest.raises(DomainError, match="need finite a < b"):
        integrate_batch(_batch_of([None, _NONFINITE[0]]), [(1.0, 0.0), _NONFINITE[1:]])


@pytest.mark.parametrize("problem", _CONVERGING)
def test_batch_of_one_is_integrate(problem):
    f, a, b, bps = problem
    (res,) = integrate_batch(_batch_of([f]), [(a, b, bps)])
    assert _bits(res) == _bits(integrate(f, a, b, DEFAULT_SPEC, bps))


def test_gk15_rows_do_not_depend_on_the_batch():
    rng = np.random.default_rng(5)
    los = np.sort(rng.uniform(-3.0, 3.0, 97))
    his = los + rng.uniform(1e-9, 2.0, 97)
    f = lambda x: np.exp(-(x**2)) * np.sin(7.0 * x) + np.abs(x) ** 0.3
    vals, errs = quadrature._gk15_batch(f, los, his)
    for k in range(los.size):
        alone = quadrature._gk15_batch(f, los[k : k + 1], his[k : k + 1])
        assert (alone[0][0].hex(), alone[1][0].hex()) == (vals[k].hex(), errs[k].hex())
    part = quadrature._gk15_batch(f, los[10:43], his[10:43])
    assert np.array_equal(part[0], vals[10:43]) and np.array_equal(part[1], errs[10:43])


def test_batch_drops_the_warnings_of_problems_after_a_failure():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be raised here, before the NonFinite
        with pytest.raises(NonFinite):
            integrate_batch(_batch_of([_NONFINITE[0], _WARNING[0]]), [_NONFINITE[1:], _WARNING[1:]])
    # the warnings of the problems up to the failure are issued, as by the loop
    with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
        with pytest.raises(NonFinite):
            integrate_batch(_batch_of([_WARNING[0], _NONFINITE[0]]), [_WARNING[1:], _NONFINITE[1:]])
    with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
        (res,) = integrate_batch(_batch_of([_WARNING[0]]), [_WARNING[1:]])
    with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
        assert _bits(res) == _bits(integrate(*_WARNING[:3]))


class _Reached(BaseException):
    """Raised by a stub that must not run; no `except Exception` hides it."""


def test_empty_batch_evaluates_nothing(monkeypatch):
    def stub(*args):
        raise _Reached

    monkeypatch.setattr(quadrature, "_gk15_batch", stub)
    monkeypatch.setattr(quadrature, "_round", stub)
    assert integrate_batch(stub, []) == []
    assert integrate_batch(stub, [], then=stub) == []


def test_batch_warns_in_the_loops_order():
    # the lockstep meets _WARNING's overflow in its first round, the loop
    # only after the 20 of _LATE_OVERFLOW
    problems = [_LATE_OVERFLOW, _WARNING]
    (want, _), want_warned = _recorded(_loop, problems, DEFAULT_SPEC)
    (got, _), got_warned = _recorded(_batch, problems, DEFAULT_SPEC)
    assert [_bits(r) for r in got] == [_bits(r) for r in want]
    assert got_warned == want_warned and len(want_warned) == 21


def test_batch_keeps_the_callers_error_state():
    problems = _CONVERGING[:2] + [_WARNING, _LATE_OVERFLOW] + _CONVERGING[2:]
    before = np.geterr()
    with pytest.warns(RuntimeWarning):
        integrate_batch(_batch_of([p[0] for p in problems]), [p[1:] for p in problems])
    assert np.geterr() == before
    # 'raise': the loop's first overflow in input order, although the
    # lockstep meets the early one first
    for first, second, match in (
        (_LATE_OVERFLOW, _EARLY_OVERFLOW, "exp"),
        (_EARLY_OVERFLOW, _LATE_OVERFLOW, "multiply"),
    ):
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match=f"overflow encountered in {match}"):
                integrate_batch(_batch_of([first[0], second[0]]), [first[1:], second[1:]])
            assert np.geterr()["over"] == "raise"
    # 'ignore': the loop's bits, silently
    with np.errstate(all="ignore"):
        want, want_warned = _recorded(_loop, problems, DEFAULT_SPEC)
        (got, got_exc), got_warned = _recorded(_batch, problems, DEFAULT_SPEC)
    assert want[1] is None and got_exc is None
    assert [_bits(r) for r in got] == [_bits(r) for r in want[0]]
    assert got_warned == want_warned == []
