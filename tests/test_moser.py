from __future__ import annotations

import math

import numpy as np
import pytest

from henon4 import quadrature
from henon4.errors import DomainError
from henon4.moser import (
    MoserParams,
    blowup_scan,
    dirichlet_norm_sq_exact,
    moser_dirichlet,
    moser_navier,
    navier_norm_sq_exact,
)
from henon4.profiles import (
    OMEGA_3,
    BoundaryKind,
    FunctionalParams,
    laplacian_l2_sq,
    series_upper_bound,
)
from henon4.quadrature import QuadratureSpec


def test_params_validation():
    with pytest.raises(DomainError):
        MoserParams(0.5, BoundaryKind.NAVIER)  # above e^-2
    with pytest.raises(DomainError):
        MoserParams(0.0, BoundaryKind.NAVIER)
    # eta >= 1/2 at eps = 1e-2 rules out the Dirichlet member
    with pytest.raises(DomainError):
        MoserParams(1e-2, BoundaryKind.DIRICHLET)
    MoserParams(1e-4, BoundaryKind.DIRICHLET)  # eta ~ 0.45 < 1/2


def test_navier_matching_point_exact():
    # eps = e^-4: both pieces give 1/(2 sqrt(omega3)) at the seam r = 1/e
    eps = math.exp(-4.0)
    u = moser_navier(MoserParams(eps, BoundaryKind.NAVIER))
    seam = eps**0.25
    assert seam == pytest.approx(math.exp(-1.0), rel=1e-15, abs=0.0)
    expected = 1.0 / (2.0 * math.sqrt(OMEGA_3))
    inner = float(u.value(np.array([seam * (1 - 1e-12)]))[0])
    outer = float(u.value(np.array([seam * (1 + 1e-12)]))[0])
    assert inner == pytest.approx(expected, rel=1e-9)
    assert outer == pytest.approx(expected, rel=1e-9)


def test_navier_derivative_matches_at_seam():
    eps = math.exp(-4.0)
    u = moser_navier(MoserParams(eps, BoundaryKind.NAVIER))
    seam = eps**0.25
    L = 4.0
    expected = -(eps**-0.25) / math.sqrt(OMEGA_3 * L)
    left = float(u.d1(np.array([seam * (1 - 1e-12)]))[0])
    right = float(u.d1(np.array([seam * (1 + 1e-12)]))[0])
    assert left == pytest.approx(expected, rel=1e-9)
    assert right == pytest.approx(expected, rel=1e-9)


def test_navier_c0_c1_matching_generic_eps():
    for eps in (1e-3, 1e-6, 1e-9):
        u = moser_navier(MoserParams(eps, BoundaryKind.NAVIER))
        seam = eps**0.25
        lo = np.array([seam * (1 - 1e-11)])
        hi = np.array([seam * (1 + 1e-11)])
        assert float(u.value(lo)[0]) == pytest.approx(float(u.value(hi)[0]), rel=1e-10)
        assert float(u.d1(lo)[0]) == pytest.approx(float(u.d1(hi)[0]), rel=1e-10)


def test_navier_vanishes_at_boundary():
    u = moser_navier(MoserParams(1e-4, BoundaryKind.NAVIER))
    assert float(u.value(np.array([1.0]))[0]) == 0.0


def test_navier_norm_formula():
    assert navier_norm_sq_exact(math.exp(-4.0)) == pytest.approx(2.0, rel=1e-14, abs=0.0)
    assert navier_norm_sq_exact(math.exp(-100.0)) == pytest.approx(1.04, rel=1e-14, abs=0.0)
    assert navier_norm_sq_exact(1e-300) == pytest.approx(1.0, abs=6e-3)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
def test_navier_norm_quadrature_matches_closed_form(eps):
    u = moser_navier(MoserParams(eps, BoundaryKind.NAVIER))
    exact = navier_norm_sq_exact(eps)
    assert abs(laplacian_l2_sq(u) - exact) <= 1e-6 * exact


def test_dirichlet_seam_value_and_boundary():
    eps = 1e-6
    mp = MoserParams(eps, BoundaryKind.DIRICHLET)
    u = moser_dirichlet(mp)
    L = -math.log(eps)
    eta = mp.eta()
    a = -math.log1p(-eta)
    seam = 1.0 - eta
    expected = a / math.sqrt(OMEGA_3 * L)
    lo = float(u.value(np.array([seam * (1 - 1e-12)]))[0])
    hi = float(u.value(np.array([seam * (1 + 1e-12)]))[0])
    assert lo == pytest.approx(expected, rel=1e-9)
    assert hi == pytest.approx(expected, rel=1e-9)
    # C1 across the cap seam
    dlo = float(u.d1(np.array([seam * (1 - 1e-12)]))[0])
    dhi = float(u.d1(np.array([seam * (1 + 1e-12)]))[0])
    assert dlo == pytest.approx(dhi, rel=1e-9)
    # double root at r = 1
    assert float(u.value(np.array([1.0]))[0]) == 0.0
    assert float(u.d1(np.array([1.0]))[0]) == 0.0


def test_dirichlet_equals_navier_inside():
    eps = 1e-6
    ud = moser_dirichlet(MoserParams(eps, BoundaryKind.DIRICHLET))
    un = moser_navier(MoserParams(eps, BoundaryKind.NAVIER))
    eta = 1.0 / math.log(-math.log(eps))
    r = np.linspace(1e-6, (1.0 - eta) * (1 - 1e-12), 500)
    assert np.allclose(ud.value(r), un.value(r), rtol=0, atol=0)
    assert np.allclose(ud.d1(r), un.d1(r), rtol=0, atol=0)
    assert np.allclose(ud.d2(r), un.d2(r), rtol=0, atol=0)


@pytest.mark.parametrize("eps", [1e-6, 1e-12, 1e-24])
def test_dirichlet_norm_deviation_bracket(eps):
    u = moser_dirichlet(MoserParams(eps, BoundaryKind.DIRICHLET))
    L = -math.log(eps)
    bracket = (laplacian_l2_sq(u) - 1.0) * L / math.log(L)
    assert 0.1 <= bracket <= 50.0


@pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-14, 1e-46, 1e-54, 1e-62])
def test_dirichlet_norm_closed_form_matches_quadrature(eps):
    # the epsilons of the Dirichlet scans, whose members blowup_scan
    # normalises by the closed form
    u = moser_dirichlet(MoserParams(eps, BoundaryKind.DIRICHLET))
    quad = laplacian_l2_sq(u, QuadratureSpec(rel_tol=1e-13))
    assert dirichlet_norm_sq_exact(eps) == pytest.approx(quad, rel=4e-16, abs=0.0)


def test_dirichlet_norm_closed_form_refuses_what_the_member_refuses():
    with pytest.raises(DomainError):
        dirichlet_norm_sq_exact(1e-3)


def test_blowup_scan_validation():
    with pytest.raises(DomainError):
        blowup_scan(0.0, 1.2, [])
    with pytest.raises(DomainError):
        blowup_scan(0.0, 1.2, [1e-2, 1e-2])
    with pytest.raises(DomainError):
        blowup_scan(0.0, 0.0, [1e-2, 1e-3])


def test_blowup_scan_rejects_its_first_epsilon_before_any_integral(monkeypatch):
    # the members before the rejected one are none: an empty batch
    def kernel(f, los, his):
        raise AssertionError("_gk15_batch called")

    monkeypatch.setattr(quadrature, "_gk15_batch", kernel)
    with pytest.raises(DomainError, match=r"epsilon must lie in \(0, e\^-2\), got 0.5"):
        blowup_scan(0.0, 1.2, [0.5, 0.1])


def test_blowup_diverging_navier():
    eps = [10.0 ** (-k) for k in range(2, 11)]
    ex = blowup_scan(0.0, 1.2, eps)
    assert ex.verdict == "Diverging"
    # strictly increasing after the first entry
    assert all(b > a for a, b in zip(ex.values[1:], ex.values[2:]))
    # log-values dominate the predicted blow-up exponent
    assert all(
        lv >= lb - 1.0 for lv, lb in zip(ex.log_values, ex.lower_bound_exponents)
    )


def test_blowup_bounded_navier():
    eps = [10.0 ** (-k) for k in range(2, 11)]
    ex = blowup_scan(0.0, 0.8, eps)
    assert ex.verdict == "Bounded"
    bound = series_upper_bound(
        FunctionalParams(0.0, 0.8 * FunctionalParams(0.0, 1.0).sigma_alpha(), None), 1.0
    )
    assert all(v <= bound + 1e-8 for v in ex.values)


def test_blowup_dirichlet_verdicts():
    div = blowup_scan(
        0.0,
        1.2,
        [10.0 ** (-k) for k in range(46, 64, 2)],
        bc=BoundaryKind.DIRICHLET,
    )
    assert div.verdict == "Diverging"
    # monotone divergence after the first entry
    assert all(b > a for a, b in zip(div.values[1:], div.values[2:]))
    bnd = blowup_scan(
        0.0,
        0.8,
        [10.0 ** (-k) for k in range(6, 15)],
        bc=BoundaryKind.DIRICHLET,
    )
    assert bnd.verdict == "Bounded"

