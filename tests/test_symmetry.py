from __future__ import annotations

import itertools
import math
import sys

import numpy as np
import pytest

from henon4 import profiles, quadrature, symmetry
from henon4.cli import main
from henon4.errors import DomainError, NonConvergence, NonFinite, OptFailure, PreconditionError
from henon4.moser import MoserParams, moser_navier
from henon4.profiles import (
    OMEGA_3,
    BoundaryKind,
    FunctionalParams,
    corpus_profile,
    cos2_profile,
    exp_minus_taylor,
    laplacian_l2_sq,
    ring_profile,
    scale_to_unit,
    unit_energy,
    weighted_functional,
    weighted_lp_norm_p,
)
from henon4.quadrature import DEFAULT_SPEC, QuadratureSpec, integrate
from henon4.rearrangement import seeded_comparison_profiles
from henon4.symmetry import (
    CROSSOVER_KAPPA,
    _FAMILIES,
    BumpSpec,
    bump_profile,
    crossover_detect,
    fit_loglog_slope,
    radial_max_search,
    translated_bump_paper_bound,
    translated_bump_value,
)
from test_profiles import _beta_series, _unit_pow

SIGMA = 32.0 * math.pi**2
_TIGHT = QuadratureSpec(rel_tol=1e-15)


def test_bump_normalized_and_admissible():
    for kind in ("poly4", "cos2"):
        u = bump_profile(BumpSpec(kind))
        assert laplacian_l2_sq(u) == pytest.approx(1.0, rel=1e-10)
        r = np.linspace(1e-4, 1.0 - 1e-6, 200)
        assert np.all(u.value(r) > 0.0)
        assert abs(float(u.value(np.array([1.0]))[0])) < 1e-12
        assert abs(float(u.d1(np.array([1.0]))[0])) < 1e-12


def test_translated_bump_scale_invariance():
    # energy of the translated rescaled bump, computed about its own center,
    # equals the bump energy exactly (4D scale invariance); alpha = 8 spot check
    u = bump_profile(BumpSpec("poly4"))
    alpha = 8.0

    def integrand(rho):
        rr = np.asarray(rho, dtype=float)
        s = alpha * rr
        lap = alpha**2 * (u.d2(s) + 3.0 * u.d1(s) / np.maximum(s, 1e-150))
        return lap**2 * rr**3

    val = OMEGA_3 * integrate(integrand, 0.0, 1.0 / alpha, DEFAULT_SPEC).value
    assert val == pytest.approx(1.0, rel=1e-8)


def test_polar_reduction_measure():
    # 4 pi int_0^1 int_0^pi s^3 sin^2(th) dth ds = vol(B) = pi^2/2
    xs, ws = np.polynomial.legendre.leggauss(64)
    s = 0.5 * (xs + 1.0)
    th = 0.5 * math.pi * (xs + 1.0)
    val = (
        4.0
        * math.pi
        * float((0.5 * ws * s**3).sum())
        * float((0.5 * math.pi * ws * np.sin(th) ** 2).sum())
    )
    assert val == pytest.approx(math.pi**2 / 2.0, rel=1e-12)


def test_prefactor_64():
    # (1 - 2/64)^64 = exp(64 log(31/32)) = 0.131084..., i.e. e^-2 (1 + o(1))
    val = (1.0 - 2.0 / 64.0) ** 64
    assert val == pytest.approx(math.exp(64.0 * math.log(31.0 / 32.0)), rel=1e-12, abs=0.0)
    assert val == pytest.approx(0.131084, abs=1e-6)
    assert val == pytest.approx(math.exp(-2.0), rel=0.04)


def test_bump_bound_is_minorant():
    p = FunctionalParams(0.0, SIGMA, 1)
    for alpha in (16.0, 64.0, 256.0):
        bound = translated_bump_paper_bound(alpha, p)
        value = translated_bump_value(alpha, p)
        assert 0.0 < bound <= value


def test_bump_bound_limit_matches_g_integral():
    # alpha^4 * bound -> e^-2 * integral_B g(u); frozen oracle value for the
    # unit-energy quartic bump at sigma = 32 pi^2, m = 1 (composite Simpson)
    i0 = 0.320533940644441
    p = FunctionalParams(0.0, SIGMA, 1)
    errs = []
    for alpha in (64.0, 256.0, 1024.0):
        bound = translated_bump_paper_bound(alpha, p)
        errs.append(abs(alpha**4 * bound - math.exp(-2.0) * i0))
    assert errs[0] > errs[1] > errs[2]
    # convergence rate is 2/alpha: (1-2/a)^a = e^-2 (1 - 2/a + O(a^-2))
    assert errs[2] < 3.0 / 1024.0 * math.exp(-2.0) * i0


def test_bump_bound_follows_the_quadrature_spec():
    # a coarse-spec call must leave nothing behind that a later
    # default-spec call reuses
    p = FunctionalParams(0.0, SIGMA, 1)
    coarse = QuadratureSpec(rel_tol=1e-3)
    translated_bump_paper_bound(64.0, p, BumpSpec("cos2"), coarse)
    got = translated_bump_paper_bound(64.0, p, BumpSpec("cos2"))

    u = unit_energy(cos2_profile())

    def integrand(s):
        val = u.value(s)
        return s**3 * exp_minus_taylor(SIGMA * val * val, 1)

    g_integral = OMEGA_3 * integrate(integrand, 0.0, 1.0).value
    fresh = (1.0 - 2.0 / 64.0) ** 64 / 64.0**4 * g_integral
    assert abs(got - fresh) <= DEFAULT_SPEC.rel_tol * fresh


def test_bump_truncation_ordering():
    for alpha in (16.0, 128.0):
        b0 = translated_bump_paper_bound(alpha, FunctionalParams(0.0, SIGMA, 0))
        b1 = translated_bump_paper_bound(alpha, FunctionalParams(0.0, SIGMA, 1))
        b2 = translated_bump_paper_bound(alpha, FunctionalParams(0.0, SIGMA, 2))
        assert b2 < b1 < b0
        v1 = translated_bump_value(alpha, FunctionalParams(0.0, SIGMA, 1))
        v2 = translated_bump_value(alpha, FunctionalParams(0.0, SIGMA, 2))
        assert v2 < v1


def test_bump_small_sigma_limit():
    val = translated_bump_value(16.0, FunctionalParams(0.0, 1e-8, 1))
    assert 0.0 <= val < 1e-18


def test_bump_preconditions():
    with pytest.raises(PreconditionError):
        translated_bump_value(2.0, FunctionalParams(0.0, SIGMA, 1))
    with pytest.raises(PreconditionError):
        translated_bump_value(16.0, FunctionalParams(0.0, SIGMA, None))
    with pytest.raises(PreconditionError):
        translated_bump_value(16.0, FunctionalParams(0.0, 2.0 * SIGMA, 1))
    for alpha in (math.nan, math.inf):
        for fn in (translated_bump_value, translated_bump_paper_bound):
            with pytest.raises(PreconditionError, match="finite alpha >= 4"):
                fn(alpha, FunctionalParams(0.0, SIGMA, 1))


def test_bump_non_convergence_raises():
    # the value is one adaptive integral, which needs 4 subintervals; a
    # budget of 2 must raise rather than return the unconverged value
    spec = QuadratureSpec(max_subdivisions=2)
    with pytest.raises(NonConvergence, match="after 2 subdivisions"):
        translated_bump_value(16.0, FunctionalParams(0.0, SIGMA, 1), BumpSpec(), spec)


def test_bump_value_is_one_integral(monkeypatch):
    # the bump's energy is a closed form, so `profiles` integrates nothing
    calls = []
    for module in (symmetry, quadrature):
        integrate_fn = module.integrate

        def counting_integrate(*args, integrate_fn=integrate_fn):
            calls.append(None)
            return integrate_fn(*args)

        monkeypatch.setattr(module, "integrate", counting_integrate)
    translated_bump_value(64.0, FunctionalParams(0.0, SIGMA, 1))
    assert len(calls) == 1


def test_bump_kinds_are_the_families_without_a_search_box():
    for kind in ("pow", "moser", "ring", "poly6"):
        with pytest.raises(DomainError, match="unknown bump kind"):
            BumpSpec(kind)


@pytest.mark.parametrize("alpha", [1e80, 1e160])
def test_bump_at_huge_alpha_underflows_without_overflow(alpha):
    # alpha**4 overflows past alpha ~ 1e77; the true values lie far below
    # 1e-300, so both round to a subnormal or to 0.0 instead
    p = FunctionalParams(0.0, SIGMA, 1)
    value = translated_bump_value(alpha, p)
    bound = translated_bump_paper_bound(alpha, p)
    assert 0.0 <= bound <= value < 1e-300
    if alpha == 1e80:
        # alpha^4 F has a finite limit, reached at 1e20 already; a
        # subnormal near 1.2e-321 keeps about 8 significant bits
        scaled = translated_bump_value(1e20, p) * 1e80
        assert value == pytest.approx(scaled * alpha**-4.0, rel=1e-2, abs=0.0)


@pytest.mark.parametrize("nu", [2.0, 2.5, 3.65, 65536.0, 5e159])
def test_angular_series_matches_quadrature(nu):
    # nu = 2 (alpha = 4): the series terminates; nu = 2.5: the terms change
    # sign once; nu = 5e159: nu^2 overflows and z^2 underflows, nu z does
    # neither; z as the translated bump makes it at alpha = 2 nu
    alpha = 2.0 * nu
    xbar = 1.0 - 1.0 / alpha
    for s in (0.25, 0.5, 1.0):
        d = s / alpha
        z = 2.0 * xbar * d / (xbar**2 + d**2)
        series = float(symmetry._angular_series(nu, np.array([z]))[0])

        def integrand(th):
            return np.exp(nu * np.log1p(z * np.cos(th))) * np.sin(th) ** 2

        quad = integrate(integrand, 0.0, math.pi, _TIGHT).value
        assert series == pytest.approx(quad, rel=1e-14, abs=0.0), (nu, s)


def _tensor_bump_value(alpha: float, p: FunctionalParams, n: int = 384) -> float:
    """Oracle: the 2D reduction by an n x n tensor Gauss-Legendre rule, with
    R^alpha = exp(alpha/2 * log1p(R^2 - 1)) and R^2 - 1 formed without
    cancellation."""
    u = bump_profile(BumpSpec())
    xs, ws = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (xs + 1.0)
    th = 0.5 * math.pi * (xs + 1.0)
    d = s / alpha
    xbar = 1.0 - 1.0 / alpha
    gs = exp_minus_taylor(p.sigma * u.value(s) ** 2, p.m) * s**3 * 0.5 * ws
    a_minus_1 = d * d - (2.0 - 1.0 / alpha) / alpha
    r_sq_minus_1 = a_minus_1[:, None] + 2.0 * xbar * np.outer(d, np.cos(th))
    weight = np.exp(0.5 * alpha * np.log1p(r_sq_minus_1)) * np.sin(th) ** 2 * 0.5 * math.pi * ws
    return 4.0 * math.pi * float(gs @ weight.sum(axis=1)) / alpha**4


@pytest.mark.parametrize("alpha", [1e6, 1e8, 1e9])
def test_bump_value_accurate_at_large_alpha(alpha):
    # log of a rounded R^2 ~ 1 is off by an ulp, times alpha/2: 5.3e-9 at 1e8
    p = FunctionalParams(0.0, SIGMA, 1)
    oracle = _tensor_bump_value(alpha, p)
    assert translated_bump_value(alpha, p) == pytest.approx(
        oracle, rel=DEFAULT_SPEC.rel_tol, abs=0.0
    )


@pytest.mark.parametrize("alpha", [1e6, 1e8, 1e9])
def test_bump_paper_bound_accurate_at_large_alpha(alpha):
    # (1 - 2/alpha)**alpha raises a rounded base to the power alpha: 5.5e-8
    # off at 1e9; the prefactor is checked against 50-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    p = FunctionalParams(0.0, SIGMA, 1)
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        prefactor = float((1 - 2 / a) ** a)
    base = weighted_functional(bump_profile(BumpSpec()), p)
    assert translated_bump_paper_bound(alpha, p) == pytest.approx(
        prefactor / alpha**4 * base, rel=DEFAULT_SPEC.rel_tol, abs=0.0
    )


def test_radial_search_beats_fixed_moser_candidate():
    p = FunctionalParams(0.0, SIGMA, 1)
    u = moser_navier(MoserParams(1e-4, BoundaryKind.NAVIER))
    v = u.scaled(1.0 / math.sqrt(laplacian_l2_sq(u)))
    candidate = weighted_functional(v, p)
    val, prof = radial_max_search([0.0], p)[0]
    assert math.isfinite(val)
    assert val >= candidate * (1.0 - 1e-9)


@pytest.mark.parametrize("m", [1, 2])
def test_radial_search_moser_family_wins_at_small_alpha(m):
    # alpha = 4 is inside the range check_sweep accepts; there a concentrating
    # member beats every power and ring profile, so the family is needed
    _, prof = radial_max_search([4.0], FunctionalParams(0.0, SIGMA, m))[0]
    assert "moser:" in prof.description


def test_radial_search_profile_certified():
    p = FunctionalParams(0.0, SIGMA, 1)
    val, prof = radial_max_search([32.0], p)[0]
    assert laplacian_l2_sq(prof) == pytest.approx(1.0, rel=1e-8)
    got = weighted_functional(prof, FunctionalParams(32.0, SIGMA, 1))
    assert got == pytest.approx(val, rel=1e-7)


def test_radial_search_deterministic():
    p = FunctionalParams(0.0, SIGMA, 1)
    v1, _ = radial_max_search([64.0], p)[0]
    v2, _ = radial_max_search([64.0], p)[0]
    assert v1 == v2


def test_radial_search_evaluates_each_point_once(monkeypatch):
    # each distinct candidate is scored once on the fixed tau rule; the
    # adaptive integral runs only for each family's final point (pow, moser
    # and ring: 3), as no candidate at alpha = 64 falls back
    calls = []
    points = []
    scored = []
    functional = symmetry.weighted_functional
    unit = symmetry._unit
    scorer = symmetry.functional_scorer

    def counting_functional(*args):
        calls.append(None)
        return functional(*args)

    def recording_unit(family, params):
        points.append((family, tuple(params)))
        return unit(family, params)

    def counting_scorer(*args):
        score = scorer(*args)

        def counting_score(problems):
            scored.extend(problems)
            return score(problems)

        return counting_score

    monkeypatch.setattr(symmetry, "weighted_functional", counting_functional)
    monkeypatch.setattr(symmetry, "_unit", recording_unit)
    monkeypatch.setattr(symmetry, "functional_scorer", counting_scorer)
    val, prof = radial_max_search([64.0], FunctionalParams(0.0, SIGMA, 1))[0]
    assert len(scored) == len(set(points)) == 110
    assert len(calls) == 3
    assert val == pytest.approx(2.039217769283519e-06, rel=1e-12, abs=0.0)
    assert "(pow:" in prof.description


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize(
    "grid",
    [
        [16.0, 32.0, 64.0, 128.0, 256.0, 512.0],
        [2048.0, 8192.0, 32768.0, 131072.0],
        # ring candidates fall back on the G7 check at 16 and 32, and pow
        # candidates on the tail at 1e20
        [16.0, 32.0, 64.0, 1e20],
    ],
    ids=["default", "large", "fallbacks"],
)
def test_radial_search_grid_is_each_alpha_alone(grid, m):
    # the lockstep sends each (alpha, family) ascent the values its search
    # alone would: a grid's results are bit for bit the lone searches'
    p = FunctionalParams(0.0, SIGMA, m)
    together = radial_max_search(grid, p)
    alone = [radial_max_search([alpha], p)[0] for alpha in grid]
    assert [val for val, _ in together] == [val for val, _ in alone]
    assert [prof.description for _, prof in together] == [prof.description for _, prof in alone]


def test_radial_search_ring_winner_at_alpha_16():
    # the one grid alpha where a ring wins: pins the order of the families
    # and the ring family's start and box
    val, prof = radial_max_search([16.0], FunctionalParams(0.0, SIGMA, 1))[0]
    assert val == pytest.approx(0.0006616792371291995, rel=1e-12, abs=0.0)
    assert "(ring:" in prof.description


# (sigma / pi^2, m, alpha, radial_max in r, profile id, radial_max in tau),
# exact: a change to the search's starts, family order, boxes or line
# searches, or to either variable's integral, shows here.  The search
# scores these candidates on the fixed tau rule; with the scorer falling
# back on every candidate it integrates each in tau and lands on the same
# points, and with the tau rule off it runs in r, whose values differ by at
# most 3.8e-13 (alpha = 65536) and name the test.
_SEARCH_PINS = [
    (8, 1, 4.0, 0.0027891945738623527, "0.594971*(moser:0.111709:navier)", 0.002789194573862353),
    (8, 1, 12.0, 0.0001126432599725821, "0.0685526*(ring:0.586293:0.599901)", 0.0001126432599725821),
    (8, 1, 16.0, 3.942152220335564e-05, "0.0661717*(ring:0.624472:0.599901)", 3.9421522203355645e-05),
    (8, 1, 512.0, 6.235184859998389e-12, "0.0583666*(pow:1.92782)", 6.235184859998402e-12),
    (8, 1, 65536.0, 1.9581515470615444e-22, "0.0562908*(pow:1.99925)", 1.9581515470615747e-22),
    (8, 3, 4.0, 1.5225037731999692e-05, "0.647459*(moser:0.0557382:navier)", 1.5225037731999693e-05),
    (8, 3, 12.0, 7.678133120417003e-08, "0.594971*(moser:0.111709:navier)", 7.678133120417e-08),
    (8, 3, 16.0, 1.2742674332539643e-08, "0.0731725*(ring:0.514162:0.599901)", 1.2742674332539647e-08),
    (8, 3, 512.0, 1.1188576289622402e-20, "0.059982*(pow:1.87525)", 1.1188576289622324e-20),
    (8, 3, 65536.0, 1.484581857284661e-39, "0.0562908*(pow:1.99925)", 1.48458185728409e-39),
    (32, 1, 4.0, 0.057571414001893986, "0.594971*(moser:0.111709:navier)", 0.05757141400189399),
    (32, 1, 12.0, 0.0019327695282038116, "0.0689778*(ring:0.579556:0.599901)", 0.0019327695282038114),
    (32, 1, 16.0, 0.0006616792371291997, "0.066439*(ring:0.620141:0.599901)", 0.0006616792371291997),
    (32, 1, 512.0, 9.97737489913205e-11, "0.0583666*(pow:1.92782)", 9.977374899132072e-11),
    (32, 1, 65536.0, 3.133042497172508e-21, "0.0562908*(pow:1.99925)", 3.1330424971725563e-21),
    (32, 3, 4.0, 0.005322085302109276, "0.663742*(moser:0.0428554:navier)", 0.005322085302109276),
    (32, 3, 12.0, 2.222699166358994e-05, "0.594971*(moser:0.111709:navier)", 2.2226991663589935e-05),
    (32, 3, 16.0, 3.504238164167133e-06, "0.073426*(ring:0.51027:0.599901)", 3.5042381641671334e-06),
    (32, 3, 512.0, 2.8648179256017685e-18, "0.059982*(pow:1.87525)", 2.864817925601751e-18),
    (32, 3, 65536.0, 3.800529602398726e-37, "0.0562908*(pow:1.99925)", 3.800529602397265e-37),
]


@pytest.mark.parametrize(
    "sigma_pi2, m, alpha, r_value, profile_id, value",
    [pytest.param(*pin, id="-".join(map(str, pin[:5]))) for pin in _SEARCH_PINS],
)
def test_radial_search_pinned(monkeypatch, sigma_pi2, m, alpha, r_value, profile_id, value):
    # every family wins somewhere on this grid, at two sigmas and two m
    p = FunctionalParams(0.0, sigma_pi2 * math.pi**2, m)
    val, prof = radial_max_search([alpha], p)[0]
    assert val == value
    assert prof.description == profile_id
    with monkeypatch.context() as patch:
        patch.setattr(symmetry, "functional_scorer", lambda spec: lambda problems: [None] * len(problems))
        val, prof = radial_max_search([alpha], p)[0]
    assert val == value
    assert prof.description == profile_id
    monkeypatch.setattr(profiles, "_TAU_MAX_SHARE", -1.0)
    val, prof = radial_max_search([alpha], p)[0]
    assert val == r_value
    assert prof.description == profile_id


@pytest.mark.parametrize("alpha", [1e12, 1e20])
def test_radial_search_at_huge_alpha_finds_the_power_profile(alpha):
    # in r these integrals fail or read 0.0, and the search would return 0.0
    # with a ring; in tau its start pow:2 already holds the Beta series value
    # F_1 of unit pow:2, the largest near r = 1
    val, prof = radial_max_search([alpha], FunctionalParams(0.0, SIGMA, 1))[0]
    assert "(pow:" in prof.description
    c = 1.0 / math.sqrt(OMEGA_3 * 16.0)
    assert val >= (1.0 - 1e-12) * _beta_series(c, 2.0, alpha, SIGMA, 1)


def test_radial_search_integrates_no_energy(monkeypatch):
    # every integral of a search is a candidate's functional: the energies
    # are closed forms, and the fixed rule scores the candidates, so one call
    # integrates once per family's final point (3, as in
    # test_radial_search_evaluates_each_point_once)
    integrals = []
    energies = []
    integrate_fn = quadrature.integrate
    energy_fn = profiles.laplacian_l2_sq

    def counting_integrate(*args):
        integrals.append(None)
        return integrate_fn(*args)

    def counting_energy(*args):
        energies.append(None)
        return energy_fn(*args)

    monkeypatch.setattr(quadrature, "integrate", counting_integrate)
    monkeypatch.setattr(profiles, "laplacian_l2_sq", counting_energy)
    radial_max_search([64.0], FunctionalParams(0.0, SIGMA, 1))
    assert len(integrals) == 3
    assert energies == []


def _code_named(code, name: str):
    return next(const for const in code.co_consts if getattr(const, "co_name", None) == name)


@pytest.mark.parametrize(
    "alpha, m, integrals",
    [
        (64.0, 1, 3),  # every candidate scored on the fixed rule
        (16.0, 2, 25),  # 22 ring candidates fail |K - G| <= rel_tol K
        (0.0, 1, 110),  # sigma = sigma_0: every candidate in r
    ],
)
def test_radial_search_objective_is_its_only_integral(monkeypatch, alpha, m, integrals):
    # henonbench/selfcheck.py counts the calls of the nested `objective` of
    # radial_max_search and requires them to equal the search's
    # weighted_functional calls: a fixed-rule score must not call it
    objective = _code_named(radial_max_search.__code__, "objective")
    objective_calls = []
    functional_calls = []
    functional = symmetry.weighted_functional

    def counting_functional(*args):
        functional_calls.append(None)
        return functional(*args)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is objective:
            objective_calls.append(None)

    monkeypatch.setattr(symmetry, "weighted_functional", counting_functional)
    sys.setprofile(hook)
    try:
        radial_max_search([alpha], FunctionalParams(0.0, SIGMA, m))
    finally:
        sys.setprofile(None)
    assert len(objective_calls) == len(functional_calls) == integrals


_LONE_INTEGRALS = {
    "F_tau": lambda out: weighted_functional(_unit_pow(2.0), FunctionalParams(64.0, SIGMA, 1)),
    "F_r": lambda out: weighted_functional(corpus_profile("sinpoly"), FunctionalParams(64.0, SIGMA, 1)),
    "F_tail": lambda out: weighted_functional(_unit_pow(2.0), FunctionalParams(1e20, SIGMA, 2)),
    "energy": lambda out: laplacian_l2_sq(cos2_profile()),
    "lp": lambda out: weighted_lp_norm_p(cos2_profile(), 2.0, 64.0),
    "sweep": lambda out: main(["symmetry-sweep", "--m", "1", "--alphas", "16,32,64,128", "--out-dir", str(out)]),
}


@pytest.mark.parametrize("case", sorted(_LONE_INTEGRALS))
def test_every_kernel_round_runs_inside_integrate(monkeypatch, tmp_path, case):
    # henonbench's tracer counts only the GK15 rounds made inside a wrapped
    # driver, and henonbench/selfcheck.py compares them with every kernel
    # call: a lone integral must be one call of `integrate`, never a lockstep
    # run of integrate_batch
    driver = quadrature.integrate
    kernel = quadrature._gk15_batch
    depth = [0]
    inside = []

    def counting_integrate(*args, **kwargs):
        depth[0] += 1
        try:
            return driver(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counting_kernel(*args):
        inside.append(depth[0] > 0)
        return kernel(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "henon4" and getattr(module, "integrate", None) is driver:
            monkeypatch.setattr(module, "integrate", counting_integrate)
    monkeypatch.setattr(quadrature, "_gk15_batch", counting_kernel)
    _LONE_INTEGRALS[case](tmp_path)
    assert inside and all(inside)


# the search boxes on a grid of 7 points per parameter, endpoints included
_BOX_POINTS = [
    (family, params)
    for family in ("pow", "moser", "ring")
    for params in itertools.product(*(np.linspace(lo, hi, 7).tolist() for lo, hi in _FAMILIES[family].box))
]


def test_functional_score_within_rel_tol_of_the_integral():
    # every score the fixed rule counts is within rel_tol of the adaptive
    # integral, on the search boxes at both sigmas, m = 1..3 and the alphas
    # of both sweep grids (the worst gap is 6.7e-16)
    counted = 0
    worst = 0.0
    for alpha in (4.0, 12.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 2048.0, 8192.0, 32768.0, 131072.0):
        for sigma in (SIGMA / 4.0, SIGMA):
            for m in (1, 2, 3):
                p = FunctionalParams(alpha, sigma, m)
                score = profiles.functional_scorer(DEFAULT_SPEC)
                for family, params in _BOX_POINTS:
                    u = symmetry._unit(family, params)
                    value = score([(u, p)])[0]
                    if value is not None:
                        counted += 1
                        worst = max(worst, abs(value / weighted_functional(u, p) - 1.0))
    assert counted == 3074  # of 4536 points
    assert worst <= DEFAULT_SPEC.rel_tol


def test_functional_scorer_batch_is_each_problem_alone():
    # one mixed batch: every search family (moser's seam is a breakpoint, so
    # it takes its own rule) at both m and at both ends of the sweep grids,
    # and one member of each fallback of test_functional_scorer_falls_back;
    # each score is bit for bit that of a fresh scorer's batch of one
    problems = [
        (symmetry._unit(family, params), FunctionalParams(alpha, SIGMA, m))
        for family, params in (("pow", (1.7,)), ("ring", (0.62, 0.6)), ("moser", (-3.0,)))
        for alpha in (16.0, 131072.0)
        for m in (1, 2)
    ] + [
        (symmetry._unit("ring", (0.0, 0.03)), FunctionalParams(128.0, SIGMA / 4.0, 1)),  # G7 check
        (symmetry._unit("pow", (2.0,)), FunctionalParams(1e20, SIGMA, 1)),  # tail
        (symmetry._unit("pow", (2.0,)), FunctionalParams(0.0, SIGMA, 1)),  # in r
    ]
    scores = profiles.functional_scorer(DEFAULT_SPEC)(problems)
    assert scores == [profiles.functional_scorer(DEFAULT_SPEC)([problem])[0] for problem in problems]
    assert None not in scores[:-3]
    assert scores[-3:] == [None, None, None]


@pytest.mark.parametrize(
    "family, params, alpha, sigma",
    [
        # a ring at the origin: the round's nodes miss its layer, and K is
        # subnormal or 0 against an adaptive 1.2e-149
        ("ring", (0.0, 0.03), 128.0, SIGMA / 4.0),
        ("pow", (2.0,), 1e20, SIGMA),  # the tail bound asks for [200, T']
        ("pow", (2.0,), 0.0, SIGMA),  # sigma = sigma_0: F_1 is integrated in r
    ],
)
def test_functional_scorer_falls_back(family, params, alpha, sigma):
    u = symmetry._unit(family, params)
    p = FunctionalParams(alpha, sigma, 1)
    assert profiles.functional_scorer(DEFAULT_SPEC)([(u, p)]) == [None]
    assert weighted_functional(u, p) >= sys.float_info.min


def _mp_ring_energy(mpmath, rho0: float, h: float) -> float:
    """||Delta u||_2^2 of ring_profile(rho0, h) by 40-digit quadrature of
    OMEGA_3 int_0^1 (r u'' + 3 u')^2 r dr, with u'' and u' in closed form."""
    with mpmath.workdps(40):
        rho0, h = mpmath.mpf(rho0), mpmath.mpf(h)

        def f(r):
            s = r - rho0
            phi = mpmath.exp(-((s / h) ** 2))
            d1 = phi * (-2 * s / h**2 * (1 - r**2) - 2 * r)
            d2 = phi * (
                (4 * s**2 / h**4 - 2 / h**2) * (1 - r**2) + 8 * s * r / h**2 - 2
            )
            return (r * d2 + 3 * d1) ** 2 * r

        pts = sorted({mpmath.mpf(0), max(rho0 - 4 * h, 0), rho0, min(rho0 + 4 * h, 1), mpmath.mpf(1)})
        return float(2 * mpmath.pi**2 * mpmath.quad(f, pts))


@pytest.mark.parametrize(
    "rho0, h",
    [
        (0.0, 0.03), (0.0, 0.6), (0.97, 0.03), (0.97, 0.6), (0.62, 0.6),
        (0.0, 0.005), (0.0, 2.0), (0.999, 0.005), (0.999, 2.0),
    ],
)
def test_ring_energy_matches_mpmath(rho0, h):
    # the four corners of the search box, the alpha = 16 winner and the four
    # corners of the domain on which ring_profile sets its closed-form energy
    mpmath = pytest.importorskip("mpmath")
    exact = _mp_ring_energy(mpmath, rho0, h)
    assert ring_profile(rho0, h).energy == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("rho0, h", [(0.5, 100.0), (0.5, 2.5), (0.5, 0.004), (0.9995, 0.3)])
def test_ring_energy_is_unknown_outside_its_domain(rho0, h):
    u = ring_profile(rho0, h)
    assert u.energy is None
    with pytest.raises(DomainError, match="of energy None"):
        scale_to_unit(u, u.energy)


def test_radial_search_m_ordering():
    v1, _ = radial_max_search([64.0], FunctionalParams(0.0, SIGMA, 1))[0]
    v2, _ = radial_max_search([64.0], FunctionalParams(0.0, SIGMA, 2))[0]
    assert v2 <= v1


def test_radial_search_validation():
    with pytest.raises(PreconditionError):
        radial_max_search([16.0], FunctionalParams(0.0, SIGMA, None))
    with pytest.raises(PreconditionError):
        radial_max_search([16.0], FunctionalParams(0.0, 2.0 * SIGMA, 1))


def test_fit_loglog_slope_exact_power():
    alphas = [16.0, 32.0, 64.0, 128.0]
    values = [7.0 * a**-4.5 for a in alphas]
    slope, resid = fit_loglog_slope(alphas, values)
    assert slope == pytest.approx(-4.5, abs=1e-12)
    assert resid < 1e-12


def test_crossover_detect_validation():
    p = FunctionalParams(0.0, SIGMA, 1)
    with pytest.raises(DomainError):
        crossover_detect(p, [16.0, 32.0, 64.0])  # too short
    with pytest.raises(DomainError):
        crossover_detect(p, [16.0, 16.0, 32.0, 64.0])
    with pytest.raises(DomainError):
        crossover_detect(FunctionalParams(0.0, SIGMA, None), [16.0, 32.0, 64.0, 128.0])


def test_crossover_detect_names_an_underflowed_value(monkeypatch):
    # at m = 171 the radial value underflows to 0.0 from alpha = 256 on; its
    # log would enter the slopes, so the sweep fails and names it instead
    monkeypatch.setattr(symmetry, "radial_max_search", lambda alphas, p, spec: [(0.0, None)] * len(alphas))
    with pytest.raises(NonFinite, match="radial_max = 0.0 at alpha=16"):
        crossover_detect(FunctionalParams(0.0, SIGMA, 1), [16.0, 32.0, 64.0, 128.0])


def test_crossover_detect_names_a_subnormal_value(monkeypatch):
    # at alpha = 1e77 the bump value is 1.2e-309, a subnormal with fewer than
    # 53 bits that cannot meet rel_tol; the sweep names it as it names 0.0
    monkeypatch.setattr(symmetry, "translated_bump_value", lambda a, p, bump, spec: 1.2e-309)
    monkeypatch.setattr(symmetry, "radial_max_search", lambda alphas, p, spec: [(1e-6, None)] * len(alphas))
    with pytest.raises(NonFinite, match="bump_exact = 1.2e-309 at alpha=16"):
        crossover_detect(FunctionalParams(0.0, SIGMA, 1), [16.0, 32.0, 64.0, 128.0])


def test_crossover_detect_keeps_the_grid_order_of_failures(monkeypatch):
    # the grid search fails at alpha = 64, after the subnormal bump value at
    # alpha = 32: the sweep still names the failure a loop over the grid
    # meets first
    def search(alphas, p, spec):
        return [None if a >= 64.0 else (1e-6, bump_profile(BumpSpec())) for a in alphas]

    monkeypatch.setattr(symmetry, "translated_bump_value", lambda a, p, bump, spec: 1.2e-309 if a == 32.0 else 1e-3)
    monkeypatch.setattr(symmetry, "radial_max_search", search)
    with pytest.raises(NonFinite, match="bump_exact = 1.2e-309 at alpha=32"):
        crossover_detect(FunctionalParams(0.0, SIGMA, 1), [16.0, 32.0, 64.0, 128.0])
    monkeypatch.setattr(symmetry, "translated_bump_value", lambda a, p, bump, spec: 1e-3)
    with pytest.raises(OptFailure, match="all radial search starts failed"):
        crossover_detect(FunctionalParams(0.0, SIGMA, 1), [16.0, 32.0, 64.0, 128.0])


def _fail_at_alpha_64(monkeypatch):
    # every candidate goes to the adaptive objective, which fails at alpha =
    # 64 only and reads 1.0 elsewhere
    def functional(u, p, spec):
        if p.alpha == 64.0:
            raise NonConvergence("forced")
        return 1.0

    monkeypatch.setattr(symmetry, "functional_scorer", lambda spec: lambda problems: [None] * len(problems))
    monkeypatch.setattr(symmetry, "weighted_functional", functional)


def test_radial_search_marks_a_failed_alpha_with_none(monkeypatch):
    _fail_at_alpha_64(monkeypatch)
    found = radial_max_search([32.0, 64.0, 128.0], FunctionalParams(0.0, SIGMA, 1))
    assert found[1] is None
    assert [val for val, _ in (found[0], found[2])] == [1.0, 1.0]


def test_crossover_detect_searches_once_when_an_alpha_fails(monkeypatch):
    _fail_at_alpha_64(monkeypatch)
    calls = []
    search = symmetry.radial_max_search

    def spy(alphas, p, spec):
        calls.append(list(alphas))
        return search(alphas, p, spec)

    monkeypatch.setattr(symmetry, "radial_max_search", spy)
    with pytest.raises(OptFailure, match="all radial search starts failed"):
        crossover_detect(FunctionalParams(0.0, SIGMA, 1), [16.0, 32.0, 64.0, 128.0])
    assert calls == [[16.0, 32.0, 64.0, 128.0]]


def test_crossover_report_shape_small_grid():
    p = FunctionalParams(0.0, SIGMA, 1)
    rep = crossover_detect(p, [16.0, 32.0, 64.0, 128.0])
    assert len(rep.rows) == 4
    # minorant chain on every row
    for r in rep.rows:
        assert 0.0 < r.bump_paper_bound <= r.bump_exact
    # rows sorted by alpha
    assert [r.alpha for r in rep.rows] == [16.0, 32.0, 64.0, 128.0]


def test_m0_control_has_no_crossover_at_large_alpha():
    # at m = 0 the radial value decays like C_0 (alpha+4)^-3 with C_0 =
    # sigma/2, and the bump like alpha^-4: their ratio falls like 1/alpha
    alphas = [1024.0, 4096.0, 16384.0, 65536.0]
    rep = crossover_detect(FunctionalParams(0.0, SIGMA, 0), alphas)
    assert rep.alpha_star is None
    slope, _ = fit_loglog_slope(alphas, [r.bump_exact / r.radial_max for r in rep.rows])
    assert -1.2 < slope < -0.8
    last = rep.rows[-1]
    assert abs(last.radial_max * (last.alpha + 4.0) ** 3 / (SIGMA / 2.0) - 1.0) < 1e-3


def test_m0_control_on_the_default_grid():
    rep = crossover_detect(FunctionalParams(0.0, SIGMA, 0), [16.0, 32.0, 64.0, 128.0, 256.0, 512.0])
    assert rep.alpha_star is None
    ratios = [r.bump_exact / r.radial_max for r in rep.rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert rep.fitted_slopes["bump"] == pytest.approx(-4.0, abs=0.01)
    assert rep.fitted_slopes["radial"] == pytest.approx(-3.0, abs=0.15)


def test_search_bump_and_seeded_derivative_consistency():
    # the closed-form contract of the corpus test, on the profiles it does
    # not reach: search families at the ends and middle of their bounds,
    # the normalised bumps, and the seeded comparison profiles
    def ends_and_middle(lo, hi):
        return (lo, 0.5 * (lo + hi), hi)

    pow_, moser, ring = (_FAMILIES[name] for name in ("pow", "moser", "ring"))
    (q_bounds,) = pow_.box
    (rho_bounds, h_bounds) = ring.box
    profiles = [pow_.profile(q) for q in ends_and_middle(*q_bounds)]
    profiles += [
        ring.profile(rho0, h)
        for rho0 in ends_and_middle(*rho_bounds)
        for h in ends_and_middle(*h_bounds)
    ]
    profiles += [moser.profile(x) for x in moser.box[0]]
    profiles += [bump_profile(BumpSpec(kind)) for kind in ("poly4", "cos2")]
    for seed in range(10):
        profiles += seeded_comparison_profiles(10, seed)

    h = 1e-5
    for u in profiles:
        for r in (0.15, 0.35, 0.55, 0.75, 0.95):
            if any(abs(r - b) < 20 * h for b in u.breakpoints):
                continue
            fd1 = (u.value(np.array([r + h]))[0] - u.value(np.array([r - h]))[0]) / (2 * h)
            fd2 = (u.d1(np.array([r + h]))[0] - u.d1(np.array([r - h]))[0]) / (2 * h)
            d1 = float(u.d1(np.array([r]))[0])
            d2 = float(u.d2(np.array([r]))[0])
            assert abs(fd1 - d1) / max(abs(d1), 1e-3) < 1e-6, (u.description, r)
            assert abs(fd2 - d2) / max(abs(d2), 1e-3) < 1e-6, (u.description, r)


def test_radial_search_skips_a_family_it_cannot_build(monkeypatch):
    # every ring candidate raises in its constructor, so each scores -inf:
    # the search returns, bit for bit, what it returns without the family
    grid = [16.0, 32.0, 64.0, 128.0]
    p = FunctionalParams(0.0, SIGMA, 1)

    def unbuildable(*params):
        raise DomainError("no ring")

    with monkeypatch.context() as patch:
        patch.setitem(_FAMILIES, "ring", _FAMILIES["ring"]._replace(profile=unbuildable))
        got = radial_max_search(grid, p)
    monkeypatch.delitem(_FAMILIES, "ring")
    want = radial_max_search(grid, p)
    x = np.linspace(0.0, 1.0, 101)
    for (val, prof), (want_val, want_prof) in zip(got, want):
        assert val == want_val
        assert prof.description == want_prof.description
        assert np.array_equal(prof.value(x), want_prof.value(x))
    # alpha = 16 is the one grid alpha where a ring wins with the family in
    assert "(pow:1.17981)" in got[0][1].description


_HYPOTHESES = {  # params and alpha that break one hypothesis, and its message
    "alpha": (FunctionalParams(0.0, SIGMA, 1), 2.0, "translated bump requires finite alpha >= 4"),
    "nan": (FunctionalParams(0.0, SIGMA, 1), math.nan, "translated bump requires finite alpha >= 4"),
    "m": (FunctionalParams(0.0, SIGMA, None), 16.0, "crossover concerns truncated functionals with m >= "),
    "sigma": (FunctionalParams(0.0, 1.01 * SIGMA, 1), 16.0, r"sigma must stay at or below 32 pi\^2"),
}
_CHECKED = {
    "check_sweep": lambda p, alpha: symmetry.check_sweep(p, [alpha, 32.0, 64.0, 128.0]),
    "radial_max_search": lambda p, alpha: radial_max_search([alpha], p),
    "translated_bump_value": lambda p, alpha: translated_bump_value(alpha, p),
    "translated_bump_paper_bound": lambda p, alpha: translated_bump_paper_bound(alpha, p),
}


@pytest.mark.parametrize(
    "name, hypothesis",
    # the search states no alpha rule: it runs at any alpha >= 0
    [(name, h) for name in _CHECKED for h in _HYPOTHESES if not (name == "radial_max_search" and h in ("alpha", "nan"))],
)
def test_each_hypothesis_is_a_precondition_and_a_domain_error(name, hypothesis):
    p, alpha, match = _HYPOTHESES[hypothesis]
    with pytest.raises(PreconditionError, match=match) as caught:
        _CHECKED[name](p, alpha)
    assert isinstance(caught.value, DomainError)
