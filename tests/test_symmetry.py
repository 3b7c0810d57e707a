from __future__ import annotations

import math

import numpy as np
import pytest

from henon4 import profiles, symmetry
from henon4.errors import DomainError, NonConvergence, NonFinite, PreconditionError
from henon4.moser import MoserParams, moser_navier
from henon4.profiles import (
    OMEGA_3,
    BoundaryKind,
    FunctionalParams,
    cos2_profile,
    exp_minus_taylor,
    laplacian_l2_sq,
    unit_energy,
    weighted_functional,
)
from henon4.quadrature import DEFAULT_SPEC, QuadratureSpec, integrate
from henon4.rearrangement import seeded_comparison_profiles
from henon4.symmetry import (
    CROSSOVER_KAPPA,
    _FAMILIES,
    BumpSpec,
    SearchOptions,
    bump_profile,
    crossover_detect,
    fit_loglog_slope,
    radial_max_search,
    translated_bump_paper_bound,
    translated_bump_value,
)

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
    for module in (symmetry, profiles):
        integrate_fn = module.integrate

        def counting_integrate(*args, integrate_fn=integrate_fn):
            calls.append(None)
            return integrate_fn(*args)

        monkeypatch.setattr(module, "integrate", counting_integrate)
    translated_bump_value(64.0, FunctionalParams(0.0, SIGMA, 1))
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["poly4", "cos2"])
def test_bump_energy_matches_quadrature(kind):
    family = _FAMILIES[kind]
    exact = family.energy()
    assert exact == pytest.approx(laplacian_l2_sq(family.profile(), _TIGHT), rel=1e-15, abs=0.0)


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
    val, prof = radial_max_search(0.0, p, SearchOptions(seed=3))
    assert math.isfinite(val)
    assert val >= candidate * (1.0 - 1e-9)


@pytest.mark.parametrize("m", [1, 2])
def test_radial_search_moser_family_wins_at_small_alpha(m):
    # alpha = 4 is inside the range check_sweep accepts; there a concentrating
    # member beats every power and ring profile, so the family is needed
    _, prof = radial_max_search(4.0, FunctionalParams(0.0, SIGMA, m))
    assert "moser:" in prof.description


def test_radial_search_profile_certified():
    p = FunctionalParams(0.0, SIGMA, 1)
    val, prof = radial_max_search(32.0, p, SearchOptions(seed=5))
    assert laplacian_l2_sq(prof) == pytest.approx(1.0, rel=1e-8)
    got = weighted_functional(prof, FunctionalParams(32.0, SIGMA, 1))
    assert got == pytest.approx(val, rel=1e-7)


def test_radial_search_deterministic():
    p = FunctionalParams(0.0, SIGMA, 1)
    v1, _ = radial_max_search(64.0, p, SearchOptions(seed=11))
    v2, _ = radial_max_search(64.0, p, SearchOptions(seed=11))
    assert v1 == v2


def test_radial_search_evaluates_each_point_once(monkeypatch):
    calls = []
    points = []
    functional = symmetry.weighted_functional
    unit = symmetry._unit

    def counting_functional(*args):
        calls.append(None)
        return functional(*args)

    def recording_unit(family, params):
        points.append((family, tuple(params)))
        return unit(family, params)

    monkeypatch.setattr(symmetry, "weighted_functional", counting_functional)
    monkeypatch.setattr(symmetry, "_unit", recording_unit)
    val, prof = radial_max_search(64.0, FunctionalParams(0.0, SIGMA, 1), SearchOptions(seed=0))
    # the last _unit call builds the returned profile, not a candidate
    distinct = set(points[:-1])
    assert len(calls) == len(distinct) == 298
    assert val == pytest.approx(2.039217769283519e-06, rel=1e-12, abs=0.0)
    assert "(pow:" in prof.description


def test_radial_search_ring_winner_at_alpha_16():
    # the one grid alpha where a ring wins: pins the order of the starts and
    # the ring box the jitter clips to
    val, prof = radial_max_search(16.0, FunctionalParams(0.0, SIGMA, 1), SearchOptions(seed=0))
    assert val == pytest.approx(0.0006616792371291995, rel=1e-12, abs=0.0)
    assert "(ring:" in prof.description


def test_radial_search_integrates_no_energy(monkeypatch):
    # every integral of a search is a candidate's functional: the energies
    # are closed forms, so one call integrates once per distinct candidate
    # (298, as in test_radial_search_evaluates_each_point_once)
    integrals = []
    energies = []
    integrate_fn = profiles.integrate
    energy_fn = profiles.laplacian_l2_sq

    def counting_integrate(*args):
        integrals.append(None)
        return integrate_fn(*args)

    def counting_energy(*args):
        energies.append(None)
        return energy_fn(*args)

    monkeypatch.setattr(profiles, "integrate", counting_integrate)
    monkeypatch.setattr(profiles, "laplacian_l2_sq", counting_energy)
    radial_max_search(64.0, FunctionalParams(0.0, SIGMA, 1), SearchOptions(seed=0))
    assert len(integrals) == 298
    assert energies == []


def _grid(lo, hi, n=5):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


@pytest.mark.parametrize("name", ["pow", "moser", "ring"])
def test_family_energy_matches_quadrature(name):
    family = _FAMILIES[name]
    bounds = family.box
    points = [[x] for x in _grid(*bounds[0], 7)]
    if name == "ring":
        points = [[rho0, h] for rho0 in _grid(*bounds[0]) for h in _grid(*bounds[1])]
    for params in points:
        exact = family.energy(*params)
        quad = laplacian_l2_sq(family.profile(*params), _TIGHT)
        assert exact == pytest.approx(quad, rel=1e-13, abs=0.0), params


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


@pytest.mark.parametrize("rho0, h", [(0.0, 0.03), (0.0, 0.6), (0.97, 0.03), (0.97, 0.6), (0.62, 0.6)])
def test_ring_energy_matches_mpmath(rho0, h):
    # the four corners of the search box and the alpha = 16 winner
    mpmath = pytest.importorskip("mpmath")
    exact = _mp_ring_energy(mpmath, rho0, h)
    assert symmetry._ring_energy(rho0, h) == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_ring_energy_refuses_parameters_outside_the_search_box():
    with pytest.raises(DomainError, match="search box"):
        symmetry._ring_energy(0.5, 100.0)


def test_radial_search_m_ordering():
    opts = SearchOptions(seed=7)
    v1, _ = radial_max_search(64.0, FunctionalParams(0.0, SIGMA, 1), opts)
    v2, _ = radial_max_search(64.0, FunctionalParams(0.0, SIGMA, 2), opts)
    assert v2 <= v1


def test_radial_search_validation():
    with pytest.raises(PreconditionError):
        radial_max_search(16.0, FunctionalParams(0.0, SIGMA, None))
    with pytest.raises(PreconditionError):
        radial_max_search(16.0, FunctionalParams(0.0, SIGMA, 0))
    with pytest.raises(PreconditionError):
        radial_max_search(16.0, FunctionalParams(0.0, 2.0 * SIGMA, 1))


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
    monkeypatch.setattr(symmetry, "radial_max_search", lambda a, p, opts, spec: (0.0, None))
    with pytest.raises(NonFinite, match="radial_max = 0.0 at alpha=16"):
        crossover_detect(FunctionalParams(0.0, SIGMA, 1), [16.0, 32.0, 64.0, 128.0])


def test_crossover_detect_names_a_subnormal_value(monkeypatch):
    # at alpha = 1e77 the bump value is 1.2e-309, a subnormal with fewer than
    # 53 bits that cannot meet rel_tol; the sweep names it as it names 0.0
    monkeypatch.setattr(symmetry, "translated_bump_value", lambda a, p, bump, spec: 1.2e-309)
    monkeypatch.setattr(symmetry, "radial_max_search", lambda a, p, opts, spec: (1e-6, None))
    with pytest.raises(NonFinite, match="bump_exact = 1.2e-309 at alpha=16"):
        crossover_detect(FunctionalParams(0.0, SIGMA, 1), [16.0, 32.0, 64.0, 128.0])


def test_crossover_report_shape_small_grid():
    p = FunctionalParams(0.0, SIGMA, 1)
    rep = crossover_detect(p, [16.0, 32.0, 64.0, 128.0], opts=SearchOptions(seed=2))
    assert len(rep.rows) == 4
    # minorant chain on every row
    for r in rep.rows:
        assert 0.0 < r.bump_paper_bound <= r.bump_exact
    # rows sorted by alpha
    assert [r.alpha for r in rep.rows] == [16.0, 32.0, 64.0, 128.0]


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
