from __future__ import annotations

import math

import numpy as np
import pytest

from henon4 import symmetry
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
    _FAMILY_BOUNDS,
    BumpSpec,
    SearchOptions,
    bump_profile,
    crossover_detect,
    fit_loglog_slope,
    radial_max_search,
    translated_bump_paper_bound,
    translated_bump_value,
    _family_profile,
)

SIGMA = 32.0 * math.pi**2


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
    assert val == pytest.approx(math.exp(64.0 * math.log(31.0 / 32.0)), rel=1e-12)
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


def test_bump_non_convergence_raises():
    # at rel_tol = 1e-15 the 192- and 384-node rules differ by ~5e-14
    # relative, above 10 * rel_tol; the unconverged value must not come back
    spec = QuadratureSpec(rel_tol=1e-15)
    with pytest.raises(NonConvergence, match="alpha=16"):
        translated_bump_value(16.0, FunctionalParams(0.0, SIGMA, 1), BumpSpec(), spec)


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
    family_profile = symmetry._family_profile

    def counting_functional(*args):
        calls.append(None)
        return functional(*args)

    def recording_profile(family, params):
        points.append((family, tuple(params)))
        return family_profile(family, params)

    monkeypatch.setattr(symmetry, "weighted_functional", counting_functional)
    monkeypatch.setattr(symmetry, "_family_profile", recording_profile)
    val, prof = radial_max_search(64.0, FunctionalParams(0.0, SIGMA, 1), SearchOptions(seed=0))
    # the last _family_profile call builds the returned profile, not a candidate
    distinct = set(points[:-1])
    assert len(calls) == len(distinct) == 298
    assert val == pytest.approx(2.039217769283519e-06, rel=1e-12)
    assert "(pow:" in prof.description


def test_radial_search_energy_memo(monkeypatch):
    p = FunctionalParams(0.0, SIGMA, 1)
    opts = SearchOptions(seed=0)
    symmetry._family_energy.cache_clear()
    cold = radial_max_search(64.0, p, opts)
    warm = radial_max_search(64.0, p, opts)
    r = np.linspace(0.0, 1.0, 65)
    assert warm[0] == cold[0]
    assert np.array_equal(warm[1].value(r), cold[1].value(r))

    # a call at another alpha integrates only the energies of new points
    symmetry._family_energy.cache_clear()
    seen = set()
    family_profile = symmetry._family_profile

    def recording_profile(family, params):
        seen.add((family, tuple(params)))
        return family_profile(family, params)

    monkeypatch.setattr(symmetry, "_family_profile", recording_profile)
    radial_max_search(64.0, p, opts)
    first = set(seen)
    seen.clear()
    energies = []
    energy = symmetry.laplacian_l2_sq

    def counting_energy(u, spec):
        energies.append(u.description)
        return energy(u, spec)

    monkeypatch.setattr(symmetry, "laplacian_l2_sq", counting_energy)
    radial_max_search(256.0, p, opts)
    assert len(energies) == len(seen - first) < len(seen)


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

    (q_bounds,) = _FAMILY_BOUNDS["pow"]
    (rho_bounds, h_bounds) = _FAMILY_BOUNDS["ring"]
    profiles = [_family_profile("pow", [q]) for q in ends_and_middle(*q_bounds)]
    profiles += [
        _family_profile("ring", [rho0, h])
        for rho0 in ends_and_middle(*rho_bounds)
        for h in ends_and_middle(*h_bounds)
    ]
    profiles += [_family_profile("moser", [x]) for x in _FAMILY_BOUNDS["moser"][0]]
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
