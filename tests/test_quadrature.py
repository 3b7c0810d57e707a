from __future__ import annotations

import math

import numpy as np
import pytest

from henon4.errors import Divergent, DomainError, NonConvergence, NonFinite
from henon4.quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    integrate,
    integrate_halfline,
)


def test_zero_integrand():
    res = integrate(lambda x: np.zeros_like(x), 0.0, 1.0)
    assert res.value == pytest.approx(0.0, abs=1e-15)


def test_cubic_polynomial():
    res = integrate(lambda x: x**3, 0.0, 1.0)
    assert res.value == pytest.approx(0.25, rel=1e-13)


def test_r3_log_singularity():
    # integration by parts: int_0^1 r^3 (-log r) dr = 1/16
    res = integrate(lambda r: r**3 * (-np.log(r)), 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 16.0, rel=1e-11)


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
    assert res.value == pytest.approx(exact, rel=1e-12)


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
