from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest

from henon4 import profiles, quadrature
from henon4.errors import DomainError, ThresholdError
from henon4.profiles import (
    OMEGA_3,
    BoundaryKind,
    FunctionalParams,
    RadialProfile,
    corpus_names,
    corpus_profile,
    embedding_bound,
    exp_minus_taylor,
    laplacian_l2_sq,
    laplacian_l2_sq_batch,
    pointwise_log_bound_margin,
    poly_profile,
    power_profile,
    ring_profile,
    scale_to_unit,
    series_upper_bound,
    sigma_alpha,
    unit_energy,
    weighted_functional,
    weighted_functional_batch,
    weighted_lp_norm_p,
    weighted_lp_norm_p_batch,
)
from henon4.profiles import _weight_partition


def zero_profile() -> RadialProfile:
    z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return RadialProfile(z, z, z, BoundaryKind.DIRICHLET, "zero")


def test_omega3_matches_ball_volume():
    assert OMEGA_3 == pytest.approx(2.0 * math.pi**2, rel=1e-15, abs=0.0)
    # integral_B 1 dx = OMEGA_3 / 4 = pi^2 / 2
    vol = weighted_functional(zero_profile(), FunctionalParams(0.0, 1.0, None))
    assert vol == pytest.approx(math.pi**2 / 2.0, rel=1e-12)


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
    assert got == pytest.approx(0.320533940644441, rel=1e-12, abs=0.0)

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
    assert weighted_lp_norm_p(u, 2.0, 0.0) == pytest.approx(math.pi**2 / 12.0, rel=1e-12, abs=0.0)
    assert weighted_lp_norm_p(u, 2.0, 4.0) == pytest.approx(
        2.0 * math.pi**2 / 120.0, rel=1e-12, abs=0.0
    )


# Values at large alpha fall to 1e-23; the spec asks for rel_tol alone.
_RELATIVE = quadrature.QuadratureSpec(rel_tol=1e-10)
_TIGHT = quadrature.QuadratureSpec(rel_tol=1e-15)


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
        pts = [0] + [1 - mpmath.mpf(c) / w for c in (256, 64, 16, 4, 1, 0.25) if c < w] + [1]
        return float(omega * mpmath.quad(f, pts))


def _mp_pow_lp2(mpmath, q: float, alpha: float) -> float:
    """int_B |x|^alpha u^2 of the unit pow profile, in closed form at 40 digits."""
    with mpmath.workdps(40):
        q, alpha = mpmath.mpf(q), mpmath.mpf(alpha)
        w = alpha + 4
        energy = q * (q + 2) ** 2 / 2  # OMEGA_3 cancels against the measure
        return float((1 / w - 2 / (w + q) + 1 / (w + 2 * q)) / energy)


@pytest.mark.parametrize("alpha", [64.0, 512.0, 2048.0, 131072.0])
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


_SIGMA = 32.0 * math.pi**2


def _beta_series(c: float, q: float, alpha: float, sigma: float, m) -> float:
    """F_m of u = c (1 - r^q): with t = r^q it is (OMEGA_3/q) sum_{k>m}
    (sigma c^2)^k / k! * B((alpha+4)/q, 2k+1), from k = 0 when m is None.
    B(a, n+1) = n! / prod_{j=0}^{n} (a+j) makes each term the last one times
    a ratio, so the sum is safe in floats."""
    a = (alpha + 4.0) / q
    x = sigma * c * c
    first = 0 if m is None else m + 1
    term, total, k = 1.0 / a, 0.0, 0
    while True:
        if k >= first:
            total += term
            if term <= 2.0**-60 * total:
                return OMEGA_3 / q * total
        k += 1
        term *= x / k * (2 * k) * (2 * k - 1) / ((a + 2 * k - 1) * (a + 2 * k))


_ALPHA_SIGMA_GRID = [(0.0, 1.0), (0.0, 10.0), (3.0, 25.0)]
_BETA_ALPHAS = [0.0, 4.0, 16.0, 64.0, 512.0, 4096.0, 131072.0, 2.0**20, 2.0**24, 1e8, 1e12, 1e20]
_BETA_CASES = [
    pytest.param(1.0, 2.0, alpha, sigma, None, id=f"poly2-alpha{alpha:g}-sigma{sigma:g}")
    for alpha, sigma in _ALPHA_SIGMA_GRID
] + [
    # c^2 = 1/E_q with E_q = OMEGA_3 q (q+2)^2 / 2, the energy of 1 - r^q
    pytest.param(
        1.0 / math.sqrt(OMEGA_3 * q * (q + 2.0) ** 2 / 2.0), q, alpha, _SIGMA, m,
        id=f"unit-pow:{q:g}-m{m}-alpha{alpha:g}",
    )
    for q in (2.0, 6.0)
    for m in (1, 2)
    for alpha in _BETA_ALPHAS
]


@pytest.mark.parametrize("c, q, alpha, sigma, m", _BETA_CASES)
def test_weighted_functional_matches_the_beta_series(c, q, alpha, sigma, m):
    # poly2 is the one case with c = 1; its x = sigma E / sigma_alpha >= 1
    # keeps it in r.
    # The unit pow:q cases from alpha = 4 on have x = 4/(alpha+4) <= 1/2 and
    # are integrated in tau; in r they cost digits past alpha = 4096 (6.0e-11
    # at alpha = 2^24, 8.7e-10 at 1e8, NonConvergence at 1e12, 0.0 at 1e20)
    u = corpus_profile("poly2") if c == 1.0 else _unit_pow(q)
    got = weighted_functional(u, FunctionalParams(alpha, sigma, m))
    assert got == pytest.approx(_beta_series(c, q, alpha, sigma, m), rel=1e-13, abs=0.0)


_VALUE_S_PROFILES = [
    "poly2", "poly4", "poly6", "pow:3", "pow:1.2", "cos2", "sinpoly", "ring:0.55:0.25",
    "moser:1e-4:navier", "moser:1e-4:dirichlet", "moser:1e-6:dirichlet",
]


@pytest.mark.parametrize("name", _VALUE_S_PROFILES)
def test_value_s_is_the_value_at_exp_minus_s(name):
    # s = 0.1 lies on the Dirichlet caps, 1 on the Moser log branches and 5 on
    # their plateaus; the scaled profile carries the closed form
    u = power_profile(1.2) if name == "pow:1.2" else corpus_profile(name)
    s = np.array([0.1, 1.0, 5.0])
    want = u.value(np.exp(-s))
    assert np.allclose(u.value_s(s), want, rtol=1e-14, atol=0.0)
    assert np.allclose(u.scaled(3.0).value_s(s), 3.0 * want, rtol=1e-14, atol=0.0)


def test_value_s_is_exact_near_the_boundary():
    # unit pow:2 is c (1 - e^-2s) = c 2s (1 - s + ...): at s = 1e-12 value_s
    # keeps every digit, while 1 - exp(-s)^2 keeps about 5
    s = np.array([1e-12])
    c = 1.0 / math.sqrt(OMEGA_3 * 16.0)
    want = c * 2e-12 * (1.0 - 1e-12)
    u = _unit_pow(2.0)
    assert u.value_s(s)[0] == pytest.approx(want, rel=1e-15, abs=0.0)
    assert abs(u.value(np.exp(-s))[0] / want - 1.0) > 1e-5


def test_profile_energy_is_set_by_closed_forms_and_scale_to_unit():
    # a constructor with a closed form sets the energy, scaled(c) carries
    # it, scale_to_unit makes it 1; sinpoly's stays unknown until then
    u = power_profile(2.0)
    assert u.energy == OMEGA_3 * 16.0 and u.scaled(2.0).energy == 4.0 * u.energy
    unit = scale_to_unit(u, u.energy)
    assert unit.energy == 1.0
    assert unit.scaled(3.0).energy == 9.0
    v = corpus_profile("sinpoly")
    assert v.energy is None and v.scaled(2.0).energy is None
    assert scale_to_unit(v, 4.0).energy == 1.0


def _energy_cases() -> list:
    from henon4.moser import MoserParams, moser_dirichlet
    from henon4.symmetry import _FAMILIES

    def grid(lo, hi, n):
        return [lo + (hi - lo) * k / (n - 1) for k in range(n)]

    pow_, moser, ring = (_FAMILIES[name] for name in ("pow", "moser", "ring"))
    cases = [corpus_profile(name) for name in corpus_names() if name != "sinpoly"]
    cases += [pow_.profile(q) for q in grid(*pow_.box[0], 7)]
    cases += [moser.profile(x) for x in grid(*moser.box[0], 7)]
    (rho_box, h_box) = ring.box
    cases += [ring.profile(rho0, h) for rho0 in grid(*rho_box, 5) for h in grid(*h_box, 5)]
    cases += [moser_dirichlet(MoserParams(eps, BoundaryKind.DIRICHLET)) for eps in (1e-12, 1e-62)]
    # the bumps' energies poly4 = 16 pi^2 and cos2 hold to the last bits
    rel = {"poly4": 1e-15, "cos2": 1e-15}
    return [pytest.param(u, rel.get(u.description, 1e-13), id=u.description) for u in cases]


@pytest.mark.parametrize("u, rel", _energy_cases())
def test_constructor_energy_matches_quadrature(u, rel):
    # the corpus, the search families over their boxes and Dirichlet Moser
    # members: each closed-form energy is the integrated one
    assert u.energy == pytest.approx(laplacian_l2_sq(u, _TIGHT), rel=rel, abs=0.0)


def test_a_unit_profile_at_x_one_half_is_integrated_in_tau(monkeypatch):
    # x = sigma E / sigma_alpha = 1/2 exactly: the r partition is never built,
    # and the first GK15 round is the 14 tau seed intervals
    def partition(*args):
        raise AssertionError("_weight_partition called")

    batches = []
    kernel = quadrature._gk15_batch

    def counting_kernel(f, los, his):
        batches.append(los.size)
        return kernel(f, los, his)

    monkeypatch.setattr(profiles, "_weight_partition", partition)
    monkeypatch.setattr(quadrature, "_gk15_batch", counting_kernel)
    p = FunctionalParams(64.0, 0.5 * sigma_alpha(64.0), 1)
    got = weighted_functional(_unit_pow(2.0), p)
    assert batches[0] == 14
    assert weighted_functional_batch([(_unit_pow(2.0), p)]) == [got]
    c = 1.0 / math.sqrt(OMEGA_3 * 16.0)
    assert got == pytest.approx(_beta_series(c, 2.0, 64.0, p.sigma, 1), rel=1e-13, abs=0.0)


# Calls that stay in r, and the bits of their r integrals: x just above 1/2,
# an unknown energy (sinpoly, whose x would be 0.05) and sigma = sigma_alpha
_R_PINS = [
    ("unit", 64.0, math.nextafter(0.5 * sigma_alpha(64.0), math.inf), "0x1.3b62822b2c5bbp-13"),
    ("raw", 64.0, 1.0, "0x1.da4b21f477204p-28"),
    ("unit", 4.0, sigma_alpha(4.0), "0x1.71d23fadaa32dp-4"),
]


@pytest.mark.parametrize("kind, alpha, sigma, value", _R_PINS)
def test_calls_outside_the_tau_rule_keep_the_r_bits(kind, alpha, sigma, value):
    u = _unit_pow(2.0) if kind == "unit" else corpus_profile("sinpoly")
    p = FunctionalParams(alpha, sigma, 1)
    assert weighted_functional(u, p).hex() == value
    assert weighted_functional_batch([(u, p)])[0].hex() == value


def test_the_tail_past_200_gets_one_more_integral():
    # at alpha = 1e20 F_2 of unit pow:2 is 7.7e-117 times OMEGA_3/(alpha+4):
    # the bound e^-200 on the tail past tau = 200 is above rel_tol/10 of it,
    # so [200, T'] is integrated too; at alpha = 64 it is not
    ends = []
    integrate_fn = quadrature.integrate

    def recording_integrate(f, a, b, *args):
        ends.append(b)
        return integrate_fn(f, a, b, *args)

    u = _unit_pow(2.0)
    c = 1.0 / math.sqrt(OMEGA_3 * 16.0)
    for alpha, count in ((64.0, 1), (1e20, 2)):
        ends.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "integrate", recording_integrate)
            got = weighted_functional(u, FunctionalParams(alpha, _SIGMA, 2))
        assert len(ends) == count and ends[0] == 200.0
        assert got == pytest.approx(_beta_series(c, 2.0, alpha, _SIGMA, 2), rel=1e-13, abs=0.0)
    assert ends[1] > 200.0


@pytest.mark.parametrize("alpha, sigma", _ALPHA_SIGMA_GRID)
def test_weighted_functional_of_cos2_matches_mpmath(alpha, sigma):
    mpmath = pytest.importorskip("mpmath")
    got = weighted_functional(corpus_profile("cos2"), FunctionalParams(alpha, sigma, None))
    with mpmath.workdps(30):
        u = lambda r: (1 + mpmath.cos(mpmath.pi * r)) / 2
        f = lambda r: r ** (alpha + 3) * mpmath.exp(sigma * u(r) ** 2)
        exact = float(2 * mpmath.pi**2 * mpmath.quad(f, [0, 1]))
    assert got == pytest.approx(exact, rel=1e-13, abs=0.0)


_WEIGHTED_INTEGRALS = {
    "F_1": lambda u, alpha: weighted_functional(u, FunctionalParams(alpha, _SIGMA, 1), _RELATIVE),
    "F_2": lambda u, alpha: weighted_functional(u, FunctionalParams(alpha, _SIGMA, 2), _RELATIVE),
    "lp2": lambda u, alpha: weighted_lp_norm_p(u, 2.0, alpha, _RELATIVE),
}


@pytest.mark.parametrize("alpha", [64.0, 512.0, 2048.0, 131072.0])
@pytest.mark.parametrize("integral", sorted(_WEIGHTED_INTEGRALS))
def test_weighted_functional_resolves_the_boundary_layer_at_once(monkeypatch, integral, alpha):
    # F_1 and F_2 of the unit profile are integrated in tau, where the layer
    # is tau ~ 1 at every alpha.  lp2 is integrated in r: the weight's
    # partition reaches the layer of width 1/(alpha+4), and its midpoints
    # split the steep ladder intervals.  Either way the first GK15 round meets
    # rel_tol; bisecting from [0, 1] takes 17 rounds at alpha = 131072
    batches = []
    kernel = quadrature._gk15_batch

    def counting_kernel(f, los, his):
        batches.append(los.size)
        return kernel(f, los, his)

    monkeypatch.setattr(quadrature, "_gk15_batch", counting_kernel)
    _WEIGHTED_INTEGRALS[integral](_unit_pow(1.9), alpha)
    assert len(batches) == 1


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 4.0, 5.0])
def test_weight_partition_is_the_dyadic_ladder_up_to_alpha_5(alpha):
    # These seeds must stay as they are: splitting [1/2, 3/4] at alpha = 0
    # moves `talenti-check --seed 2` profile 0's u_sq (true value
    # 1.43010130502565) from 5.7e-11 relative on one side of it to 4.4e-11
    # on the other, a step of 1.0e-10, so a report compared with the old
    # value at rel_tol fails.
    bps = (0.3, 0.7)
    levels = math.ceil(math.log2(alpha + 4.0))
    ladder = tuple(1.0 - 0.5**k for k in range(1, levels + 1))
    assert _weight_partition(alpha, bps) == bps + ladder


@pytest.mark.parametrize("alpha", [5.5, 6.0, 64.0, 131072.0, 1e8, 1e20, 1e300])
def test_weight_partition_splits_only_steep_ladder_intervals(alpha):
    # Below 1/2 the partition is the profile's breakpoints alone: splitting
    # [0, 1/2] moves the `moser-blowup --alpha 64` values that the suite's
    # references record (see ROADMAP item 3).
    bps = (0.1, 0.4)
    points = _weight_partition(alpha, bps)
    assert points[:2] == bps and min(points[2:]) == 0.5
    levels = min(math.ceil(math.log2(alpha + 4.0)), 53)
    mids = set(points[2:]) - {1.0 - 0.5**k for k in range(1, levels + 1)}
    assert mids  # the weight grows by more than e^2 across [1/2, 3/4]
    # each added point is the geometric midpoint 1 - 2^-(k+1/2) of a ladder interval
    assert mids <= {1.0 - 0.5 ** (k + 0.5) for k in range(1, levels)}


def test_weighted_lp_norm_rejects_non_finite_alpha():
    for alpha in (math.inf, math.nan, -1.0):
        with pytest.raises(DomainError):
            weighted_lp_norm_p(poly_profile(1), 2.0, alpha)
        with pytest.raises(DomainError, match="alpha must be finite and >= 0"):
            embedding_bound(2.0, alpha, 1.0)
        with pytest.raises(DomainError, match="alpha must be finite and >= 0"):
            FunctionalParams(alpha, 1.0, None)


def test_bounds_reject_nan_and_negative_arguments():
    for pexp, lap_norm in ((math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, -1.0)):
        with pytest.raises(DomainError):
            embedding_bound(pexp, 0.0, lap_norm)
    # the L^p norms take the exponents the embedding bound takes
    for pexp in (math.nan, math.inf, 0.5):
        with pytest.raises(DomainError, match="pexp must be finite and >= 1"):
            weighted_lp_norm_p(poly_profile(1), pexp, 0.0)
        with pytest.raises(DomainError, match="pexp must be finite and >= 1"):
            weighted_lp_norm_p_batch([(poly_profile(1), 2.0, 0.0), (poly_profile(1), pexp, 0.0)])


def test_embedding_bound_examples():
    assert embedding_bound(2.0, 0.0, 1.0) == pytest.approx(1.0 / 64.0, rel=1e-14, abs=0.0)
    # p = 2k with k = 1 reduces to the same closed form
    k = 1
    eps = 4.0 / 4.0
    general = math.factorial(k) * eps ** (1 + k) / 4 ** (1 + 2 * k) * OMEGA_3 ** (1 - k)
    assert general == pytest.approx(1.0 / 64.0, rel=1e-14, abs=0.0)
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
    assert series_upper_bound(p) == pytest.approx(math.pi**2, rel=1e-14, abs=0.0)
    # sigma -> 0+: only the k = 0 term survives, the measure of B ... bound
    # tends to OMEGA_3 / 4
    tiny = FunctionalParams(0.0, 1e-12, None)
    assert series_upper_bound(tiny) == pytest.approx(OMEGA_3 / 4.0, rel=1e-10)
    # m = 0 bound equals the full bound minus the k = 0 term
    for alpha in (0.0, 3.0, 16.0):
        p_full = FunctionalParams(alpha, 0.37 * sigma_alpha(alpha), None)
        p_m0 = FunctionalParams(p_full.alpha, p_full.sigma, 0)
        lhs = series_upper_bound(p_m0)
        rhs = series_upper_bound(p_full) - OMEGA_3 / (4.0 + alpha)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_series_upper_bound_threshold_error():
    p = FunctionalParams(2.0, sigma_alpha(2.0), None)
    with pytest.raises(ThresholdError):
        series_upper_bound(p)


def test_sigma_alpha_identity():
    for alpha in (0.0, 1.0, 4.0, 16.0, 512.0):
        assert sigma_alpha(alpha) == pytest.approx(
            (4.0 + alpha) * 4.0 * OMEGA_3, rel=1e-14
        )


def test_pointwise_margin_zero_profile():
    assert pointwise_log_bound_margin(zero_profile(), 0.0) == 0.0


@pytest.mark.parametrize("energy", [math.inf, -1.0, math.nan])
def test_pointwise_margin_refuses_a_negative_or_non_finite_energy(energy):
    # no profile has such an energy; a margin of 0.0 or nan would read as a
    # bound that holds, or pass no verdict at all
    with pytest.raises(DomainError, match="finite energy >= 0"):
        pointwise_log_bound_margin(corpus_profile("poly4"), energy)


def test_pointwise_margin_poly2():
    u = poly_profile(1)
    m = pointwise_log_bound_margin(u, laplacian_l2_sq(u))
    assert m <= 1.0 + 1e-9
    # ratio at r = 1/e: |u| = 1 - e^{-2} against bound sqrt(1)*||Delta u||/(2 sqrt(omega3))
    lap = math.sqrt(32.0 * math.pi**2)
    ratio = (1.0 - math.e**-2) * 2.0 * math.sqrt(OMEGA_3) / lap
    assert ratio == pytest.approx(0.432, abs=5e-4)


def test_pointwise_margin_moser():
    u = unit_energy(corpus_profile("moser:1e-4:navier"))
    assert pointwise_log_bound_margin(u, laplacian_l2_sq(u)) <= 1.0 + 1e-9


def test_exp_minus_taylor_consistency():
    # against direct subtraction where cancellation is mild
    for z in (0.6, 1.0, 3.0):
        for m in (0, 1, 2):
            direct = math.exp(z) - sum(z**k / math.factorial(k) for k in range(m + 1))
            got = float(exp_minus_taylor(np.array([z]), m)[0])
            assert got == pytest.approx(direct, rel=1e-13, abs=0.0)
    # successive truncations differ by the dropped Taylor term
    z = np.array([0.01, 0.3, 0.49])
    for m in (0, 1, 2):
        diff = exp_minus_taylor(z, m) - exp_minus_taylor(z, m + 1)
        term = z ** (m + 1) / math.factorial(m + 1)
        assert np.allclose(diff, term, rtol=1e-12)
    # m absent reduces to exp
    assert float(exp_minus_taylor(np.array([0.25]), None)[0]) == pytest.approx(
        math.exp(0.25), rel=1e-15, abs=0.0
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


def test_exp_minus_taylor_of_joined_arrays_is_each_call_alone():
    # weighted_functional_batch and functional_scorer sum the series of many
    # problems in one call: its value at each z must not depend on the other
    # z values, in either branch and on both sides of the pow form's m <= 142
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def joins(draw):
        m = draw(st.sampled_from((0, 1, 2, 7, 142, 143, 200)))
        z = st.one_of(st.just(0.0), st.just(float(m + 1)), st.floats(min_value=0.0, max_value=3.0 * (m + 1)))
        return m, draw(st.lists(z, min_size=1, max_size=20)), draw(st.lists(z, min_size=1, max_size=20))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(joins())
    def check(join):
        m, a, b = join
        joined = exp_minus_taylor(np.array(a + b), m)
        alone = np.concatenate([exp_minus_taylor(np.array(a), m), exp_minus_taylor(np.array(b), m)])
        assert joined.tobytes() == alone.tobytes()

    check()


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
        one = np.array([1.0])
        assert abs(u.value(one)[0]) <= 1e-12, name
        if u.boundary is BoundaryKind.DIRICHLET:
            assert abs(u.d1(one)[0]) <= 1e-12, name


@pytest.mark.parametrize("name", ["pow", "pow:1.2", "pow:3:4", "cos2:1", "ring:0.5", "moser:1e-2:foo"])
def test_corpus_rejects_names_outside_the_table(name):
    with pytest.raises(DomainError, match=f"unknown corpus profile {name!r}"):
        corpus_profile(name)


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
    # an energy that is no number, such as the None of an unknown energy,
    # is a DomainError that names the profile, not a TypeError
    for energy in (None, "1", [1.0]):
        with pytest.raises(DomainError, match="cannot normalize poly2 of energy"):
            scale_to_unit(poly_profile(1), energy)
    assert scale_to_unit(poly_profile(1), 4.0).value(np.array([0.0]))[0] == 0.5


def test_functional_params_validation():
    with pytest.raises(DomainError):
        FunctionalParams(-1.0, 1.0, None)
    with pytest.raises(DomainError):
        FunctionalParams(0.0, 0.0, None)
    with pytest.raises(DomainError):
        FunctionalParams(0.0, 1.0, -2)


@pytest.mark.parametrize("rho0, h", [(1.0, 0.1), (0.5, 0.0)])
def test_ring_profile_rejects_a_centre_or_width_outside_its_domain(rho0, h):
    with pytest.raises(DomainError, match="need 0 <= rho0 < 1 and h > 0"):
        ring_profile(rho0, h)


def test_power_profile_rejects_bad_exponent():
    with pytest.raises(DomainError):
        power_profile(0.0)


def test_poly_profile_takes_an_integer_j():
    # the closed-form energy holds for integers j >= 1; at j = 1.5 it would
    # divide by zero, and below that be negative
    for j in (0, 1.5, 1.2, True):
        with pytest.raises(DomainError):
            poly_profile(j)


def test_batch_forms_are_the_scalar_forms_bit_for_bit():
    # one batch mixes every corpus profile with alphas and truncation orders,
    # so each exp_minus_taylor call joins z values of many problems
    profiles = [corpus_profile(name) for name in corpus_names()]
    energies = laplacian_l2_sq_batch(profiles)
    assert energies == [laplacian_l2_sq(u) for u in profiles]
    units = [scale_to_unit(u, e) for u, e in zip(profiles, energies)]
    grid = [FunctionalParams(a, s * 32.0 * math.pi**2, m) for a in (0.0, 3.5, 64.0) for s in (0.5, 0.9) for m in (None, 0, 1, 3)]
    problems = [(u, p) for u in units for p in grid]
    assert weighted_functional_batch(problems) == [weighted_functional(u, p) for u, p in problems]
    # tau and r in one lockstep batch, with one tail integral past tau = 200:
    # unit profiles at x <= 1/2 and x > 1/2, raw profiles of unknown energy
    mixed = [
        (units[0], FunctionalParams(16.0, _SIGMA, 1)),
        (profiles[0], FunctionalParams(16.0, 1.0, 1)),
        (_unit_pow(2.0), FunctionalParams(1e20, _SIGMA, 2)),
        (units[9], FunctionalParams(4.0, 0.6 * sigma_alpha(4.0), 2)),
        (units[12], FunctionalParams(64.0, _SIGMA, None)),
        (profiles[7], FunctionalParams(4.0, 1.0, 0)),
    ]
    assert weighted_functional_batch(mixed) == [weighted_functional(u, p) for u, p in mixed]
    lps = [(u, pexp, a) for u in units for pexp in (1.0, 2.0, 6.0) for a in (0.0, 16.0)]
    assert weighted_lp_norm_p_batch(lps) == [weighted_lp_norm_p(*item) for item in lps]


def test_batch_calls_a_shared_profile_once_per_round(monkeypatch):
    # one unit profile under 16 (alpha, m) pairs, all integrated in r
    # (x = 0.9 > 1/2): each kernel round calls the profile once, on the
    # joined abscissae of every live problem, not once per problem
    unit = scale_to_unit(corpus_profile("poly4"), corpus_profile("poly4").energy)
    calls, rounds = [], []
    counted = dataclasses.replace(unit, value=lambda r: calls.append(r.size) or unit.value(r))
    kernel = quadrature._gk15_batch
    counting_kernel = lambda f, los, his: rounds.append(los.size) or kernel(f, los, his)
    monkeypatch.setattr(quadrature, "_gk15_batch", counting_kernel)
    grid = [FunctionalParams(a, 0.9 * sigma_alpha(a), m) for a in (0.0, 1.0, 4.0, 16.0) for m in (None, 0, 1, 2)]
    values = weighted_functional_batch([(counted, p) for p in grid])
    assert len(calls) == len(rounds) > 1
    assert sum(calls) == 15 * sum(rounds)
    assert values == [weighted_functional(unit, p) for p in grid]


def test_batch_forms_fail_in_input_order(monkeypatch):
    # a ring 1e-3 wide needs more than 8 subdivisions; the zero profile none
    u, z = ring_profile(0.55, 1e-3), zero_profile()
    tight = quadrature.QuadratureSpec(max_subdivisions=8)
    with pytest.raises(quadrature.NonConvergence):
        weighted_lp_norm_p_batch([(z, 2.0, 0.0), (u, 2.0, 0.0), (z, 2.0, 0.0)], tight)

    # an invalid pexp anywhere is refused before any integral
    def kernel(f, los, his):
        raise AssertionError("_gk15_batch called")

    monkeypatch.setattr(quadrature, "_gk15_batch", kernel)
    for bad in range(3):
        problems = [(z, 2.0, 0.0), (u, 2.0, 0.0)]
        problems.insert(bad, (z, 0.5, 0.0))
        with pytest.raises(DomainError, match="pexp"):
            weighted_lp_norm_p_batch(problems, tight)
