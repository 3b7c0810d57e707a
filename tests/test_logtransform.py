from __future__ import annotations

import math

import numpy as np
import pytest

from henon4.errors import DomainError, PreconditionError
from henon4.logtransform import (
    LogProfile,
    log_energy,
    marshall_moser_family,
    marshall_moser_integral,
    sqrt_transform_energy,
    to_log_profile,
)
from henon4.profiles import (
    OMEGA_3,
    BoundaryKind,
    corpus_profile,
    laplacian_l2_sq,
    poly_profile,
    unit_energy,
)
from henon4.quadrature import QuadratureSpec, integrate, integrate_halfline

TWO_PIECE_VALUE = 1.848872767005  # 1 + int_0^1 e^{t^2 - t} dt (Taylor series oracle)


def test_to_log_profile_zero():
    z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    from henon4.profiles import RadialProfile

    u = RadialProfile(z, z, z, BoundaryKind.NAVIER, "zero")
    wp = to_log_profile(u, 4.0)
    t = np.linspace(0.0, 10.0, 11)
    assert np.all(wp.w(t) == 0.0)


def test_to_log_profile_poly2_closed_form():
    # u = 1 - r^2, gamma = 4: w(t) = 2 sqrt(4 omega3) (1 - e^{-t/2})
    u = poly_profile(1)
    wp = to_log_profile(u, 4.0)
    t = np.linspace(0.0, 40.0, 101)
    expected = 2.0 * math.sqrt(4.0 * OMEGA_3) * (1.0 - np.exp(-t / 2.0))
    assert np.allclose(wp.w(t), expected, rtol=1e-12)
    assert float(wp.w(np.array([0.0]))[0]) == 0.0
    assert float(wp.w(np.array([800.0]))[0]) == pytest.approx(
        4.0 * math.sqrt(OMEGA_3), rel=1e-12
    )


def test_to_log_profile_refuses_a_gamma_whose_scale_overflows():
    # w'' carries gamma**-1.5, which overflows above gamma ~ 3.2e205
    u = corpus_profile("poly2")
    assert log_energy(to_log_profile(u, 3e205)) == pytest.approx(32.0 * math.pi**2, rel=1e-9)
    for gamma in (4e205, 1e300, math.inf):
        with pytest.raises(DomainError, match="gamma = "):
            to_log_profile(u, gamma)


def test_to_log_profile_refuses_a_gamma_that_is_not_positive():
    with pytest.raises(PreconditionError, match="gamma must be > 0"):
        to_log_profile(poly_profile(1), 0.0)


def test_decreasing_source_gives_nonnegative_w1():
    for name in ("poly2", "poly4", "pow:3", "moser:1e-4:navier"):
        u = corpus_profile(name)
        wp = to_log_profile(u, 5.0)
        t = np.linspace(0.0, 100.0, 501)
        assert np.min(wp.w1(t)) >= -1e-12


def test_log_energy_identity_poly2():
    u = poly_profile(1)
    for gamma in (1.0, 4.0, 20.0):
        wp = to_log_profile(u, gamma)
        assert log_energy(wp) == pytest.approx(32.0 * math.pi**2, rel=1e-9)


def test_log_energy_direct_w_closed_form():
    # w = t e^{-t}, gamma = 2: int (w'' - w')^2 = int (2t-3)^2 e^{-2t} dt = 5/2
    w = lambda t: np.asarray(t) * np.exp(-np.asarray(t))
    w1 = lambda t: (1.0 - np.asarray(t)) * np.exp(-np.asarray(t))
    w2 = lambda t: (np.asarray(t) - 2.0) * np.exp(-np.asarray(t))
    wp = LogProfile(2.0, w, w1, w2)
    assert log_energy(wp) == pytest.approx(2.5, rel=1e-10)


def test_sqrt_transform_identity():
    assert sqrt_transform_energy(poly_profile(1)) == pytest.approx(
        32.0 * math.pi**2, rel=1e-9
    )
    assert sqrt_transform_energy(poly_profile(2)) == pytest.approx(
        16.0 * math.pi**2, rel=1e-9
    )


@pytest.mark.parametrize("name", ["poly2", "poly4", "cos2", "moser:1e-4:navier", "ring:0.55:0.25"])
def test_exact_identity_triple(name):
    u = corpus_profile(name)
    radial = laplacian_l2_sq(u)
    sqrt_form = sqrt_transform_energy(u)
    assert abs(sqrt_form - radial) <= 1e-8 * radial
    log_forms = [log_energy(to_log_profile(u, gamma)) for gamma in (1.0, 4.0, 20.0, 512.0, 4096.0, 1e6)]
    for log_form in log_forms:
        assert abs(log_form - radial) <= 1e-8 * radial
    # in s = t/gamma the integrand is the same at every gamma, so the gammas
    # differ only in the rounding of to_log_profile's constants
    assert max(log_forms) - min(log_forms) <= 2e-15 * radial


def test_marshall_moser_zero_member():
    val = marshall_moser_integral(
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        cumulative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        l2_sq=0.0,
        support_hint=4.0,
    )
    assert abs(val - 1.0) <= 1e-12


def test_marshall_moser_two_piece_box():
    member = next(m for m in marshall_moser_family() if m.name == "box:1:1")
    val = marshall_moser_integral(
        member.psi,
        cumulative=member.cumulative,
        l2_sq=member.l2_sq,
        support_hint=member.support_hint,
        breakpoints=member.breakpoints,
    )
    assert val == pytest.approx(TWO_PIECE_VALUE, abs=1e-6)


def test_marshall_moser_box_family_scan():
    sup = 0.0
    for member in marshall_moser_family():
        if not member.name.startswith(("box:1:", "box:10:", "box:100:")):
            continue
        val = marshall_moser_integral(
            member.psi,
            cumulative=member.cumulative,
            l2_sq=member.l2_sq,
            support_hint=member.support_hint,
            breakpoints=member.breakpoints,
        )
        assert math.isfinite(val) and val > 0.0
        sup = max(sup, val)
    assert math.isfinite(sup)


def test_marshall_moser_family_size_and_admissibility():
    fam = marshall_moser_family()
    assert len(fam) >= 20
    assert all(m.l2_sq <= 1.0 + 1e-12 for m in fam)


@pytest.mark.parametrize("member", marshall_moser_family(), ids=lambda m: m.name)
def test_marshall_moser_family_closed_forms_match_psi(member):
    # the lemma's hypothesis is about psi itself: its stored mass and
    # cumulative must be what psi integrates to
    spec = QuadratureSpec(rel_tol=1e-13)
    bps = member.breakpoints
    mass = integrate_halfline(lambda t: member.psi(t) ** 2, 0.0, spec, bps).value
    assert mass == pytest.approx(member.l2_sq, rel=1e-12, abs=1e-15)
    for t in (0.3, 1.7, 5.0, 13.0, 80.0):
        partial = integrate(member.psi, 0.0, t, spec, [b for b in bps if b < t]).value
        assert partial == pytest.approx(float(member.cumulative(t)), rel=1e-12, abs=1e-15)


def test_marshall_moser_precondition():
    with pytest.raises(PreconditionError):
        marshall_moser_integral(
            lambda t: np.where(np.asarray(t) < 1.0, 1.1, 0.0),
            cumulative=lambda t: 1.1 * np.minimum(np.asarray(t, dtype=float), 1.0),
            l2_sq=1.1**2,
            support_hint=4.0,
        )


def test_estimates_reduced_integrand_below_one():
    # w(t) <= sqrt(t) at threshold forces e^{w^2 - t} <= 1 pointwise
    u = unit_energy(poly_profile(1))
    wp = to_log_profile(u, 4.0)
    t = np.linspace(0.0, 200.0, 2001)
    assert np.max(wp.w(t) ** 2 - t) <= 1e-9
