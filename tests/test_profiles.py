from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from henon4 import quadrature
from henon4.errors import DomainError, PreconditionError, ThresholdError
from henon4.profiles import (
    BALL_VOLUME,
    OMEGA_3,
    BoundaryKind,
    FunctionalParams,
    RadialProfile,
    assert_boundary_conditions,
    corpus_names,
    corpus_profile,
    embedding_bound,
    exp_minus_taylor,
    laplacian_l2_sq,
    pointwise_log_bound_margin,
    poly_profile,
    power_profile,
    ring_profile,
    scale_to_unit,
    series_upper_bound,
    unit_energy,
    weighted_functional,
    weighted_lp_norm_p,
)


def zero_profile() -> RadialProfile:
    z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return RadialProfile(z, z, z, BoundaryKind.DIRICHLET, "zero")


def test_omega3_matches_ball_volume():
    assert OMEGA_3 == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    # integral_B 1 dx = OMEGA_3 / 4 = pi^2 / 2
    vol = weighted_functional(zero_profile(), FunctionalParams(0.0, 1.0, None))
    assert vol == pytest.approx(math.pi**2 / 2.0, rel=1e-12)
    assert BALL_VOLUME == pytest.approx(math.pi**2 / 2.0, rel=1e-15)


def test_laplacian_zero_profile():
    assert laplacian_l2_sq(zero_profile()) == pytest.approx(0.0, abs=1e-14)


def test_laplacian_poly2():
    # Delta(1-r^2) = -8, so the energy is 64 * vol(B) = 32 pi^2
    assert laplacian_l2_sq(poly_profile(1)) == pytest.approx(
        32.0 * math.pi**2, rel=1e-12
    )


def test_laplacian_poly4():
    # Delta(1-r^2)^2 = 24 r^2 - 16; omega_3 * int (24r^2-16)^2 r^3 dr = 8 omega_3
    assert laplacian_l2_sq(poly_profile(2)) == pytest.approx(
        16.0 * math.pi**2, rel=1e-12
    )


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("name", ["poly2", "poly4", "cos2", "ring:0.55:0.25"])
def test_laplacian_homogeneity(name, c):
    u = corpus_profile(name)
    base = laplacian_l2_sq(u)
    assert laplacian_l2_sq(u.scaled(c)) == pytest.approx(c * c * base, rel=1e-10)


def test_weighted_functional_zero_truncated():
    assert weighted_functional(zero_profile(), FunctionalParams(1.0, 7.0, 1)) == 0.0


def test_weighted_functional_oracle_poly4():
    # frozen from a 10^6-panel composite Simpson oracle (see below); the
    # integrand's center value is g(u(0)) = e^2 - 3
    u = poly_profile(2).scaled(1.0 / (4.0 * math.pi))
    sigma = 32.0 * math.pi**2
    got = weighted_functional(u, FunctionalParams(0.0, sigma, 1))
    assert got == pytest.approx(0.320533940644441, rel=1e-12)

    n = 200_000
    r = np.linspace(0.0, 1.0, n + 1)
    s = u.value(r)
    f = r**3 * exp_minus_taylor(sigma * s * s, 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    oracle = OMEGA_3 / (3.0 * n) * float((f * w).sum())
    assert got == pytest.approx(oracle, rel=1e-11)
    assert math.exp(2.0) - 3.0 == pytest.approx(4.389056, abs=1e-6)


def test_lp_norm_examples():
    u = poly_profile(1)
    assert weighted_lp_norm_p(zero_profile(), 2.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert weighted_lp_norm_p(u, 2.0, 0.0) == pytest.approx(math.pi**2 / 12.0, rel=1e-12)
    assert weighted_lp_norm_p(u, 2.0, 4.0) == pytest.approx(
        2.0 * math.pi**2 / 120.0, rel=1e-12
    )


# Values at large alpha fall to 1e-23; the spec asks for rel_tol alone.
_RELATIVE = quadrature.QuadratureSpec(rel_tol=1e-10)


def _unit_pow(q: float):
    # ||Delta (1 - r^q)||_2^2 = OMEGA_3 q (q+2)^2 / 2 in closed form
    return scale_to_unit(power_profile(q), OMEGA_3 * q * (q + 2.0) ** 2 / 2.0)


def _mp_pow_functional(mpmath, q: float, alpha: float, sigma: float) -> float:
    """F_1 of the unit pow profile by 40-digit tanh-sinh quadrature."""
    with mpmath.workdps(40):
        q, alpha, sigma = mpmath.mpf(q), mpmath.mpf(alpha), mpmath.mpf(sigma)
        omega = 2 * mpmath.pi**2
        energy = omega * q * (q + 2) ** 2 / 2

        def f(r):
            z = sigma * (1 - r**q) ** 2 / energy
            return r ** (alpha + 3) * (mpmath.expm1(z) - z)

        w = alpha + 4
        pts = [0] + [1 - mpmath.mpf(c) / w for c in (256, 64, 16, 4, 1, 0.25)] + [1]
        return float(omega * mpmath.quad(f, pts))


def _mp_pow_lp2(mpmath, q: float, alpha: float) -> float:
    """int_B |x|^alpha u^2 of the unit pow profile, in closed form at 40 digits."""
    with mpmath.workdps(40):
        q, alpha = mpmath.mpf(q), mpmath.mpf(alpha)
        w = alpha + 4
        energy = q * (q + 2) ** 2 / 2  # OMEGA_3 cancels against the measure
        return float((1 / w - 2 / (w + q) + 1 / (w + 2 * q)) / energy)


@pytest.mark.parametrize("alpha", [2048.0, 131072.0])
@pytest.mark.parametrize("q", [1.9, 4.0])
def test_weighted_integrals_match_mpmath_at_large_alpha(q, alpha):
    mpmath = pytest.importorskip("mpmath")
    u = _unit_pow(q)
    sigma = 32.0 * math.pi**2
    # abs=0: pytest.approx would otherwise accept anything within 1e-12
    got = weighted_functional(u, FunctionalParams(alpha, sigma, 1), _RELATIVE)
    exact = _mp_pow_functional(mpmath, q, alpha, sigma)
    assert got == pytest.approx(exact, rel=1e-10, abs=0.0)
    got = weighted_lp_norm_p(u, 2.0, alpha, _RELATIVE)
    assert got == pytest.approx(_mp_pow_lp2(mpmath, q, alpha), rel=1e-10, abs=0.0)


def test_weighted_functional_is_accurate_to_rel_tol_when_small():
    # F_8 of the unit ring:0.3:0.3 at alpha = 16 is 1.5e-14; the default
    # spec must still give it to rel_tol, against 40-digit mpmath quadrature
    mpmath = pytest.importorskip("mpmath")
    rho0, h, alpha, sigma, m = 0.3, 0.3, 16.0, 32.0 * math.pi**2, 8
    energy = laplacian_l2_sq(ring_profile(rho0, h))
    u = scale_to_unit(ring_profile(rho0, h), energy)
    got = weighted_functional(u, FunctionalParams(alpha, sigma, m))
    with mpmath.workdps(40):

        def f(r):
            z = sigma * (mpmath.exp(-(((r - rho0) / h) ** 2)) * (1 - r**2)) ** 2 / energy
            taylor = sum(z**k / mpmath.factorial(k) for k in range(m + 1))
            return r ** (alpha + 3) * (mpmath.exp(z) - taylor)

        exact = float(OMEGA_3 * mpmath.quad(f, [0, rho0, 1]))
    assert got == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_weighted_functional_resolves_the_boundary_layer_at_once(monkeypatch):
    # the weight's dyadic partition reaches the layer of width 1/(alpha+4)
    # in the first round; bisecting from [0, 1] takes 17 rounds here
    batches = []
    kernel = quadrature._gk15_batch

    def counting_kernel(f, los, his):
        batches.append(los.size)
        return kernel(f, los, his)

    monkeypatch.setattr(quadrature, "_gk15_batch", counting_kernel)
    p = FunctionalParams(131072.0, 32.0 * math.pi**2, 1)
    weighted_functional(_unit_pow(1.9), p, _RELATIVE)
    assert 1 <= len(batches) <= 3


def test_weighted_lp_norm_rejects_non_finite_alpha():
    for alpha in (math.inf, math.nan, -1.0):
        with pytest.raises(DomainError):
            weighted_lp_norm_p(poly_profile(1), 2.0, alpha)


def test_embedding_bound_examples():
    assert embedding_bound(2.0, 0.0, 1.0) == pytest.approx(1.0 / 64.0, rel=1e-14)
    # p = 2k with k = 1 reduces to the same closed form
    k = 1
    eps = 4.0 / 4.0
    general = math.factorial(k) * eps ** (1 + k) / 4 ** (1 + 2 * k) * OMEGA_3 ** (1 - k)
    assert general == pytest.approx(1.0 / 64.0, rel=1e-14)
    assert embedding_bound(5.0, 3.0, 0.0) == 0.0


@pytest.mark.parametrize("pexp", [2.0, 4.0, 6.0])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0, 16.0])
@pytest.mark.parametrize("name", ["poly2", "poly4", "cos2", "moser:1e-4:navier"])
def test_embedding_inequality_spot(name, pexp, alpha):
    u = corpus_profile(name)
    lap = math.sqrt(laplacian_l2_sq(u))
    lhs = weighted_lp_norm_p(u, pexp, alpha)
    assert lhs <= embedding_bound(pexp, alpha, lap) * (1.0 + 1e-8)


def test_series_upper_bound_examples():
    p = FunctionalParams(0.0, 0.5 * 32.0 * math.pi**2, None)
    assert series_upper_bound(p, 1.0) == pytest.approx(math.pi**2, rel=1e-14)
    # sigma -> 0+: only the k = 0 term survives, the measure of B ... bound
    # tends to OMEGA_3 / 4
    tiny = FunctionalParams(0.0, 1e-12, None)
    assert series_upper_bound(tiny, 1.0) == pytest.approx(OMEGA_3 / 4.0, rel=1e-10)
    # m = 0 bound equals the full bound minus the k = 0 term
    for alpha in (0.0, 3.0, 16.0):
        p_full = FunctionalParams(alpha, 0.37 * FunctionalParams(alpha, 1.0).sigma_alpha(), None)
        p_m0 = FunctionalParams(p_full.alpha, p_full.sigma, 0)
        lhs = series_upper_bound(p_m0, 1.0)
        rhs = series_upper_bound(p_full, 1.0) - OMEGA_3 / (4.0 + alpha)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_series_upper_bound_threshold_error():
    p = FunctionalParams(2.0, FunctionalParams(2.0, 1.0).sigma_alpha(), None)
    with pytest.raises(ThresholdError):
        series_upper_bound(p, 1.0)
    with pytest.raises(PreconditionError):
        series_upper_bound(FunctionalParams(0.0, 1.0, None), 1.5)


def test_sigma_alpha_identity():
    for alpha in (0.0, 1.0, 4.0, 16.0, 512.0):
        p = FunctionalParams(alpha, 1.0, None)
        assert p.sigma_alpha() == pytest.approx(
            (4.0 + alpha) * 4.0 * OMEGA_3, rel=1e-14
        )


def test_pointwise_margin_zero_profile():
    assert pointwise_log_bound_margin(zero_profile()) == 0.0


def test_pointwise_margin_poly2():
    u = poly_profile(1)
    m = pointwise_log_bound_margin(u)
    assert m <= 1.0 + 1e-9
    # ratio at r = 1/e: |u| = 1 - e^{-2} against bound sqrt(1)*||Delta u||/(2 sqrt(omega3))
    lap = math.sqrt(32.0 * math.pi**2)
    ratio = (1.0 - math.e**-2) * 2.0 * math.sqrt(OMEGA_3) / lap
    assert ratio == pytest.approx(0.432, abs=5e-4)


def test_pointwise_margin_moser():
    u = unit_energy(corpus_profile("moser:1e-4:navier"))
    assert pointwise_log_bound_margin(u) <= 1.0 + 1e-9


def test_exp_minus_taylor_consistency():
    # against direct subtraction where cancellation is mild
    for z in (0.6, 1.0, 3.0):
        for m in (0, 1, 2):
            direct = math.exp(z) - sum(z**k / math.factorial(k) for k in range(m + 1))
            got = float(exp_minus_taylor(np.array([z]), m)[0])
            assert got == pytest.approx(direct, rel=1e-13)
    # successive truncations differ by the dropped Taylor term
    z = np.array([0.01, 0.3, 0.49])
    for m in (0, 1, 2):
        diff = exp_minus_taylor(z, m) - exp_minus_taylor(z, m + 1)
        term = z ** (m + 1) / math.factorial(m + 1)
        assert np.allclose(diff, term, rtol=1e-12)
    # m absent reduces to exp
    assert float(exp_minus_taylor(np.array([0.25]), None)[0]) == pytest.approx(
        math.exp(0.25), rel=1e-15
    )


def _mp_remainder(mpmath, z: float, m: int):
    """sum_{k>m} z^k/k! in 60 digits, summed until the terms stop counting."""
    with mpmath.workdps(60):
        z = mpmath.mpf(z)
        term = z ** (m + 1) / mpmath.factorial(m + 1)
        total, k = term, m + 2
        while k <= z or term > total * mpmath.mpf(10) ** -70:
            term = term * z / k
            total += term
            k += 1
        return total


def _assert_matches_mpmath(mpmath, zs, m: int, rel: float) -> None:
    got = exp_minus_taylor(np.asarray(zs, dtype=float), m)
    for z, g in zip(zs, got):
        want = _mp_remainder(mpmath, z, m)
        # below the normal range the true value is not representable
        assert abs(g - want) <= rel * want + sys.float_info.min, (z, m, g, want)


def test_exp_minus_taylor_matches_mpmath_remainder():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    mpmath = pytest.importorskip("mpmath")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(min_value=0, max_value=30),
        st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=8),
    )
    def check(m, zs):
        _assert_matches_mpmath(mpmath, zs, m, 1e-14)

    check()


def test_exp_minus_taylor_finite_and_accurate_at_m_200():
    mpmath = pytest.importorskip("mpmath")
    zs = [0.3, 5.0, 50.0, 120.0, 200.0, 200.9, 201.0, 260.0, 400.0]
    got = exp_minus_taylor(np.array(zs), 200)
    assert np.all(np.isfinite(got))
    _assert_matches_mpmath(mpmath, zs, 200, 1e-13)


def _forty_term_exp_minus_taylor(z, m):
    """The remainder sum as it stood for z < 0.5: a fixed 40 terms."""
    term = z ** (m + 1) / math.factorial(m + 1)
    acc = term.copy()
    for k in range(m + 2, m + 41):
        term = term * z / k
        acc += term
    return acc


def test_exp_minus_taylor_bit_identical_below_half():
    small = np.concatenate([[0.0, 1e-300, 1e-12], np.linspace(1e-6, 0.5, 257)[:-1]])
    for m in (0, 1, 2, 3, 5, 8, 12, 20, 30, 100, 142):
        want = _forty_term_exp_minus_taylor(small, m)
        assert np.array_equal(exp_minus_taylor(small, m), want)
        # the term count follows the largest z in the series branch; a longer
        # sum must leave the small-z values unchanged too
        mixed = np.concatenate([small, [0.75, 0.5 * (m + 1), m + 0.99, m + 3.0]])
        assert np.array_equal(exp_minus_taylor(mixed, m)[: small.size], want)
        for z in small[::16]:
            assert np.array_equal(exp_minus_taylor(np.array([z]), m), want[small == z])


def test_truncated_functional_positive_and_decreasing_to_m_20():
    sigma = 0.9 * 32.0 * math.pi**2
    for name in ("poly2", "cos2"):
        u = unit_energy(corpus_profile(name))
        vals = [weighted_functional(u, FunctionalParams(0.0, sigma, m)) for m in range(3, 21)]
        assert all(v > 0.0 for v in vals), (name, vals)
        assert all(a > b for a, b in zip(vals, vals[1:])), (name, vals)


def test_truncation_monotone_in_m():
    sigma = 0.9 * 32.0 * math.pi**2
    for name in ("poly2", "cos2", "moser:1e-4:navier"):
        u = unit_energy(corpus_profile(name))
        vals = [
            weighted_functional(u, FunctionalParams(0.0, sigma, m))
            for m in (None, 0, 1, 2)
        ]
        assert vals[0] >= vals[1] >= vals[2] >= vals[3] > 0.0


def test_corpus_complete_and_boundary_clean():
    names = corpus_names()
    assert len(names) >= 10
    for name in names:
        u = corpus_profile(name)
        assert_boundary_conditions(u, tol=1e-12)


def test_corpus_derivative_consistency():
    # d1 and d2 must be consistent with value by central differences on
    # interior points (closed-form contract)
    h = 1e-5
    for name in corpus_names():
        u = corpus_profile(name)
        for r in (0.15, 0.35, 0.55, 0.75, 0.95):
            if any(abs(r - b) < 20 * h for b in u.breakpoints):
                continue
            fd1 = (u.value(np.array([r + h]))[0] - u.value(np.array([r - h]))[0]) / (2 * h)
            fd2 = (u.d1(np.array([r + h]))[0] - u.d1(np.array([r - h]))[0]) / (2 * h)
            d1 = float(u.d1(np.array([r]))[0])
            d2 = float(u.d2(np.array([r]))[0])
            scale1 = max(abs(d1), 1e-3)
            scale2 = max(abs(d2), 1e-3)
            assert abs(fd1 - d1) / scale1 < 1e-6
            assert abs(fd2 - d2) / scale2 < 1e-6


def test_unit_energy_normalizes():
    u = unit_energy(corpus_profile("ring:0.55:0.25"))
    assert laplacian_l2_sq(u) == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(DomainError):
        unit_energy(zero_profile())


def test_scale_to_unit_rejects_an_energy_that_is_not_finite_and_positive():
    for energy in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            scale_to_unit(poly_profile(1), energy)
    assert scale_to_unit(poly_profile(1), 4.0).value(np.array([0.0]))[0] == 0.5


def test_functional_params_validation():
    with pytest.raises(DomainError):
        FunctionalParams(-1.0, 1.0, None)
    with pytest.raises(DomainError):
        FunctionalParams(0.0, 0.0, None)
    with pytest.raises(DomainError):
        FunctionalParams(0.0, 1.0, -2)


def test_power_profile_rejects_bad_exponent():
    with pytest.raises(DomainError):
        power_profile(0.0)
