"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.

Criterion 6 is split: the decay-slope clauses and the m = 2 qualitative
outcome hold; the m = 1 on-grid crossover clause is asserted exactly as
stated and fails, because on alpha in {16..512} the radial search's
boundary-adapted profiles (values ~ alpha^-5 with a large constant) dominate
the translated bump (~ 0.12 alpha^-4) by a factor 60..380; the measured
bump/(1.05 radial) ratio only reaches ~0.017 at alpha = 512, and the two
power laws cross near alpha ~ 3e4, far beyond the grid.  The failure is a
property of the quantities themselves, not of the implementation.
"""

from __future__ import annotations

import math
import time

import pytest

from henon4.cli import main as cli_main
from henon4.logtransform import (
    log_energy,
    marshall_moser_family,
    marshall_moser_integral,
    sqrt_transform_energy,
    to_log_profile,
)
from henon4.moser import MoserParams, blowup_scan, moser_dirichlet, moser_navier
from henon4.profiles import (
    BoundaryKind,
    FunctionalParams,
    corpus_names,
    corpus_profile,
    embedding_bound,
    laplacian_l2_sq,
    pointwise_log_bound_margin,
    series_upper_bound,
    sigma_alpha,
    unit_energy,
    weighted_functional,
    weighted_lp_norm_p,
)
from henon4.rearrangement import seeded_comparison_profiles, talenti_comparison_check
from henon4.symmetry import (
    CROSSOVER_KAPPA,
    BumpSpec,
    crossover_detect,
)

SIGMA0 = 32.0 * math.pi**2
SWEEP_ALPHAS = [16.0, 32.0, 64.0, 128.0, 256.0, 512.0]

# frozen oracle: 1 + int_0^1 e^{t^2-t} dt, the integral summed as the Taylor
# series sum_n (-1)^n n!/(2n+1)! to 12 digits
TWO_PIECE_VALUE = 1.848872767005


def _announce(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_criterion_1_exact_identity_suite():
    t0 = time.time()
    names = corpus_names()
    assert len(names) >= 10
    worst = 0.0
    for name in names:
        u = corpus_profile(name)
        radial = laplacian_l2_sq(u)
        sqrt_form = sqrt_transform_energy(u)
        worst = max(worst, abs(sqrt_form - radial) / radial)
        for gamma in (1.0, 4.0, 8.0, 20.0):  # includes alpha+4 for alpha in {4, 16}
            log_form = log_energy(to_log_profile(u, gamma))
            worst = max(worst, abs(log_form - radial) / radial)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _announce(1, ok, f"{len(names)} profiles, worst pairwise rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_moser_norms():
    worst = 0.0
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        u = moser_navier(MoserParams(eps, BoundaryKind.NAVIER))
        exact = 1.0 + 4.0 / (-math.log(eps))
        rel = abs(laplacian_l2_sq(u) - exact) / exact
        worst = max(worst, rel)
        assert rel <= 1e-6
    brackets = []
    for eps in (1e-6, 1e-12, 1e-24):
        u = moser_dirichlet(MoserParams(eps, BoundaryKind.DIRICHLET))
        L = -math.log(eps)
        br = (laplacian_l2_sq(u) - 1.0) * L / math.log(L)
        brackets.append(br)
        assert 0.1 <= br <= 50.0
    _announce(
        2,
        True,
        f"Navier norm worst rel {worst:.2e}; Dirichlet brackets "
        + ", ".join(f"{b:.3f}" for b in brackets),
    )


def test_criterion_3_pointwise_embedding_series():
    worst_margin = 0.0
    for name in corpus_names():
        u = unit_energy(corpus_profile(name))
        margin = pointwise_log_bound_margin(u, laplacian_l2_sq(u))
        worst_margin = max(worst_margin, margin)
        assert margin <= 1.0 + 1e-9, name

    worst_embed = 0.0
    for name in corpus_names():
        u = corpus_profile(name)
        lap = math.sqrt(laplacian_l2_sq(u))
        for pexp in (2.0, 4.0, 6.0):
            for alpha in (0.0, 1.0, 4.0, 16.0):
                lhs = weighted_lp_norm_p(u, pexp, alpha)
                rhs = embedding_bound(pexp, alpha, lap)
                worst_embed = max(worst_embed, lhs / rhs)
                assert lhs <= rhs * (1.0 + 1e-8), (name, pexp, alpha)

    worst_series = 0.0
    for name in corpus_names():
        u = unit_energy(corpus_profile(name))
        for alpha in (0.0, 1.0, 4.0, 16.0):
            sigma = 0.9 * sigma_alpha(alpha)
            for m in (None, 0, 1, 2):
                params = FunctionalParams(alpha, sigma, m)
                val = weighted_functional(u, params)
                bound = series_upper_bound(params, 1.0)
                worst_series = max(worst_series, val / bound)
                assert val <= bound * (1.0 + 1e-8), (name, alpha, m)

    _announce(
        3,
        True,
        f"margin<= {worst_margin:.6f}; embedding ratio <= {worst_embed:.4f}; "
        f"series ratio <= {worst_series:.4f}",
    )


def test_criterion_4_threshold_sharpness():
    t0 = time.time()
    navier_eps = [10.0 ** (-k) for k in range(2, 11)]
    for alpha in (0.0, 4.0):
        div = blowup_scan(alpha, 1.2, navier_eps)
        assert div.verdict == "Diverging", f"alpha={alpha}"
        for lv, floor in zip(div.log_values, div.lower_bound_exponents):
            assert lv >= floor - 1.0
        bnd = blowup_scan(alpha, 0.8, navier_eps)
        assert bnd.verdict == "Bounded", f"alpha={alpha}"
        cap = series_upper_bound(FunctionalParams(alpha, 0.8 * sigma_alpha(alpha), None), 1.0)
        assert all(v <= cap + 1e-8 for v in bnd.values)

    # Dirichlet members: the cap's energy excess decays only like log L / L,
    # so divergence at beta = 1.2 emerges on a much deeper ladder
    deep = [10.0 ** (-k) for k in range(46, 64, 2)]
    shallow = [10.0 ** (-k) for k in range(6, 15)]
    for alpha in (0.0, 4.0):
        ddiv = blowup_scan(alpha, 1.2, deep, bc=BoundaryKind.DIRICHLET)
        assert ddiv.verdict == "Diverging", f"dirichlet alpha={alpha}"
        dbnd = blowup_scan(alpha, 0.8, shallow, bc=BoundaryKind.DIRICHLET)
        assert dbnd.verdict == "Bounded", f"dirichlet alpha={alpha}"
    elapsed = time.time() - t0
    _announce(4, elapsed < 120.0, f"8 scans with expected verdicts in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_5_talenti_oracle():
    worst_gap = math.inf
    worst_l2 = 0.0
    profiles = seeded_comparison_profiles(10)
    for v, rep in zip(profiles, talenti_comparison_check(profiles)):
        worst_gap = min(worst_gap, rep.min_gap)
        worst_l2 = max(worst_l2, rep.l2_rel_err)
        assert rep.min_gap >= -1e-8, v.description
        assert rep.l2_rel_err <= 1e-8, v.description
        assert rep.v_sq_integral <= rep.u_sq_integral + 1e-8, v.description
    _announce(5, True, f"10 seeded profiles; min gap {worst_gap:+.2e}, l2 err <= {worst_l2:.2e}")


@pytest.fixture(scope="module")
def symmetry_sweeps():
    t0 = time.time()
    reps = {}
    for m in (1, 2):
        reps[m] = crossover_detect(
            FunctionalParams(0.0, SIGMA0, m),
            SWEEP_ALPHAS,
            BumpSpec("poly4"),
        )
    reps["elapsed"] = time.time() - t0
    return reps


def test_criterion_6_slopes_m1(symmetry_sweeps):
    rep = symmetry_sweeps[1]
    bump_slope = rep.fitted_slopes["bump"]
    radial_slope = rep.fitted_slopes["radial"]
    ok = -4.3 <= bump_slope <= -3.8 and radial_slope <= -4.2
    _announce(
        6,
        ok,
        f"m=1 slopes: bump {bump_slope:.3f} in [-4.3,-3.8], radial {radial_slope:.3f} <= -4.2; "
        f"residuals {rep.fitted_slopes['bump_max_residual']:.3f}/"
        f"{rep.fitted_slopes['radial_max_residual']:.3f}; "
        f"runtime {symmetry_sweeps['elapsed']:.0f}s",
    )
    assert -4.3 <= bump_slope <= -3.8
    assert radial_slope <= -4.2
    assert rep.fitted_slopes["bump_max_residual"] < 0.15
    assert rep.fitted_slopes["radial_max_residual"] < 0.15
    assert symmetry_sweeps["elapsed"] < 600.0


def test_criterion_6_crossover_m1_as_specified(symmetry_sweeps):
    # Asserted exactly as stated.  The measured ratios document why it cannot
    # hold on this grid: the radial lower bound exceeds the translated-bump
    # lower bound everywhere on {16..512} (see module docstring).
    rep = symmetry_sweeps[1]
    ratios = [r.bump_exact / (CROSSOVER_KAPPA * r.radial_max) for r in rep.rows]
    detail = ", ".join(f"{r.alpha:g}:{q:.4f}" for r, q in zip(rep.rows, ratios))
    _announce(6, rep.alpha_star is not None, f"m=1 crossover; bump/(1.05*radial) = {detail}")
    assert rep.alpha_star is not None, (
        "no m=1 crossover on the grid: bump/(1.05*radial) stays below 1 "
        f"(= {detail}); the power laws alpha^-4 vs alpha^-5 with the measured "
        "prefactors cross near alpha ~ 3e4"
    )
    past = [r for r in rep.rows if r.alpha >= rep.alpha_star]
    margins = [r.crossover_margin() for r in past]
    assert all(b > a for a, b in zip(margins, margins[1:]))


def test_criterion_6_m2_identical_qualitative(symmetry_sweeps):
    rep = symmetry_sweeps[2]
    bump_slope = rep.fitted_slopes["bump"]
    radial_slope = rep.fitted_slopes["radial"]
    assert -4.3 <= bump_slope <= -3.8
    assert radial_slope <= -4.2
    assert rep.fitted_slopes["bump_max_residual"] < 0.15
    assert rep.fitted_slopes["radial_max_residual"] < 0.15
    assert rep.alpha_star is not None
    past = [r for r in rep.rows if r.alpha >= rep.alpha_star]
    margins = [r.crossover_margin() for r in past]
    assert margins[0] > 0.0
    assert all(b > a for a, b in zip(margins, margins[1:]))
    _announce(
        6,
        True,
        f"m=2: slopes bump {bump_slope:.3f}, radial {radial_slope:.3f}; "
        f"alpha_star = {rep.alpha_star:g} with increasing margin",
    )


def test_criterion_7_marshall_moser_scan():
    family = marshall_moser_family()
    assert len(family) >= 20
    sup = 0.0
    for member in family:
        val = marshall_moser_integral(
            member.psi,
            cumulative=member.cumulative,
            l2_sq=member.l2_sq,
            support_hint=member.support_hint,
            breakpoints=member.breakpoints,
        )
        assert math.isfinite(val) and val > 0.0, member.name
        sup = max(sup, val)
        if member.name == "zero":
            assert abs(val - 1.0) <= 1e-12
        if member.name == "box:1:1":
            assert abs(val - TWO_PIECE_VALUE) <= 1e-6
    _announce(7, True, f"{len(family)} admissible members all finite; scan sup = {sup:.4f}")


def test_criterion_8_determinism(tmp_path):
    args = [
        "symmetry-sweep",
        "--sigma", "32pi2",
        "--m", "1",
        "--alphas", "16,32,64,128",
        "--seed", "7",
    ]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli_main(args + ["--out-dir", str(out1)]) == 0
    assert cli_main(args + ["--out-dir", str(out2)]) == 0
    same_json = (out1 / "sweep_report.json").read_bytes() == (
        out2 / "sweep_report.json"
    ).read_bytes()
    same_csv = (out1 / "sweep_report.csv").read_bytes() == (
        out2 / "sweep_report.csv"
    ).read_bytes()
    _announce(8, same_json and same_csv, "repeated sweep runs byte-identical (json, csv)")
    assert same_json
    assert same_csv
