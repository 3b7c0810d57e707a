from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from henon4.errors import DomainError, PreconditionError
from henon4.profiles import (
    OMEGA_3,
    BoundaryKind,
    RadialProfile,
    corpus_profile,
    poly_profile,
    weighted_lp_norm_p,
)
from henon4.rearrangement import (
    ComparisonReport,
    _midpoints,
    _radius_grid,
    _rearrange,
    _sample,
    seeded_comparison_profiles,
    talenti_comparison_check,
)


def make_profile(value, d1, d2, desc) -> RadialProfile:
    wrap = lambda g: (lambda r: g(np.asarray(r, dtype=float)))
    return RadialProfile(wrap(value), wrap(d1), wrap(d2), BoundaryKind.NAVIER, desc)


def zero_profile() -> RadialProfile:
    return make_profile(np.zeros_like, np.zeros_like, np.zeros_like, "zero")


def rearranged(u, grid_size):
    """mu-knots, sorted values and carried weights of |u| on the radius grid."""
    radii, weights = _radius_grid(grid_size)
    samples, knots, sharp = np.empty(grid_size), np.empty(grid_size + 2), np.empty(grid_size + 2)
    _sample(u.value, radii, samples)
    _rearrange(samples, weights, knots, sharp)
    w = knots[1:-1].copy()
    _midpoints(knots)
    return knots[1:-1], sharp[1:-1], w


def test_rearrangement_idempotent_on_decreasing():
    u = poly_profile(1)
    radii, _ = _radius_grid(50_000)
    assert np.array_equal(rearranged(u, 50_000)[1], u.value(radii))


def test_rearrangement_of_increasing_ramp():
    # u(r) = r has level sets |{u > lam}| = (pi^2/2)(1 - lam^4), so
    # u#(mu) = (1 - mu)^{1/4}
    u = make_profile(lambda r: r, lambda r: np.ones_like(r), lambda r: np.zeros_like(r), "ramp")
    mu, vals, _ = rearranged(u, 50_000)
    inside = (mu >= 0.05**4) & (mu <= 0.95**4)
    expected = (1.0 - mu[inside]) ** 0.25
    assert np.max(np.abs(vals[inside] - expected)) < 1e-4


def test_rearrangement_constant():
    u = make_profile(
        lambda r: np.full_like(r, 0.7),
        lambda r: np.zeros_like(r),
        lambda r: np.zeros_like(r),
        "const",
    )
    assert np.allclose(rearranged(u, 10_000)[1], 0.7, atol=1e-12)


def measure_space_integral(profile, phi, n=1_000_000):
    """integral_B phi(|profile|) dx via the 4-volume midpoint rule."""
    mu = (np.arange(n) + 0.5) / n
    vals = np.abs(profile.value(mu**0.25))
    return OMEGA_3 / 4.0 * float(np.mean(phi(vals)))


def slab_integral(u, phi, grid_size=100_000):
    """integral_B phi(u#) dx summed over the measure slabs of the rearrangement."""
    _, vals, w = rearranged(u, grid_size)
    return OMEGA_3 / 4.0 * float(np.sum(w * phi(vals)))


@pytest.mark.parametrize("name", ["poly2", "sinpoly", "ring:0.55:0.25"])
def test_cavalieri_second_power(name):
    u = corpus_profile(name)
    lhs = weighted_lp_norm_p(u, 2.0, 0.0)
    rhs = slab_integral(u, lambda s: s * s)
    assert rhs == pytest.approx(lhs, rel=1e-6)


def test_cavalieri_increasing_transform():
    # Cavalieri for a different continuous increasing Phi
    u = corpus_profile("sinpoly")
    phi = lambda s: np.expm1(s)
    lhs = measure_space_integral(u, phi)
    rhs = slab_integral(u, phi)
    assert rhs == pytest.approx(lhs, rel=1e-6)


@pytest.mark.parametrize("c", [1.0, 0.5], ids=["f8", "f4"])
def test_comparison_equality_case(c):
    # v = c (1 - r^2) has f = -Delta v = 8c already rearranged: u = v# = v
    (rep,) = talenti_comparison_check([poly_profile(1).scaled(c)], grid_size=50_000)
    assert rep.holds
    assert abs(rep.min_gap) < 1e-9


def test_comparison_poly4():
    (rep,) = talenti_comparison_check([poly_profile(2)], grid_size=100_000)
    assert rep.holds
    assert rep.min_gap >= -1e-8
    assert rep.l2_rel_err <= 1e-8


def test_comparison_seeded_family():
    profiles = seeded_comparison_profiles(10)
    for v, rep in zip(profiles, talenti_comparison_check(profiles, grid_size=100_000)):
        assert rep.holds, f"{v.description}: gap={rep.min_gap:.3e} l2={rep.l2_rel_err:.3e}"


@pytest.mark.parametrize("grid_size", [16_389, 30_000])
def test_residual_guard_accepts_correct_solves_on_coarser_grids(grid_size):
    # the guard's cross-check integrand has a kink at every knot; at these
    # sizes an adaptive reference at rel_tol 1e-10 ran out of subdivisions and
    # the guard raised NonConvergence on a solve its residual test had passed
    (rep,) = talenti_comparison_check([seeded_comparison_profiles(3, 12)[2]], grid_size=grid_size)
    assert rep.u_sq_integral > 0.0


def test_comparison_zero_profile():
    # Delta v = 0: ||f|| and ||f#|| both vanish, and so does their relative gap
    (rep,) = talenti_comparison_check([zero_profile()])
    assert rep.holds
    assert rep.min_gap == 0.0
    assert rep.l2_rel_err == 0.0


# Rounding in the Poisson chain, not sampling, sets these two gaps (see the
# FOUND line on the chain's lost digits in CHANGES.md), so they move with any
# change to the float64 operations in or upstream of the chain.
@pytest.mark.parametrize(
    "seed, k, expected",
    [
        (7, 9, ComparisonReport(
            False, -1.1167522705191057e-08, 6.244873241537203e-11,
            2.2017246462112436, 4.309523688725329,
        )),
        (5, 3, ComparisonReport(
            False, -3.026679434858792e-08, 5.6619226881105525e-11,
            2.0640045434963907, 2.2099343550379964,
        )),
    ],
)
def test_comparison_bits_pinned(seed, k, expected):
    (rep,) = talenti_comparison_check([seeded_comparison_profiles(10, seed)[k]])
    assert rep == expected


def test_comparison_peak_memory():
    # numpy reports its data allocations to tracemalloc; the second call is
    # measured, and it builds its own radius grid inside the measurement
    v = seeded_comparison_profiles(1)[0]
    talenti_comparison_check([v])
    tracemalloc.start()
    try:
        talenti_comparison_check([v])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"one check at M = 100,000 peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("seed", range(10))
def test_batch_is_each_profile_alone(seed):
    # the call's arrays are refilled for each profile: a batch reads no
    # value left over from the profile before
    profiles = seeded_comparison_profiles(10, seed)
    assert talenti_comparison_check(profiles) == [
        talenti_comparison_check([v])[0] for v in profiles
    ]


def test_mixed_batch_ends_on_the_zero_profile():
    profiles = [seeded_comparison_profiles(1, 3)[0], poly_profile(2), zero_profile()]
    reports = talenti_comparison_check(profiles)
    assert reports == [talenti_comparison_check([v])[0] for v in profiles]
    assert reports[-1].min_gap == 0.0
    assert reports[-1].l2_rel_err == 0.0


def test_empty_batch():
    assert talenti_comparison_check([]) == []


def test_concurrent_batches_match_serial():
    seeds = (2, 7)
    serial = {s: talenti_comparison_check(seeded_comparison_profiles(10, s)) for s in seeds}
    results = {}

    def work(s):
        results[s] = talenti_comparison_check(seeded_comparison_profiles(10, s))

    threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


@pytest.mark.parametrize("grid_size", [0, -3, 15, 2.5, True, 16.0])
@pytest.mark.parametrize(
    "entry",
    [
        lambda g: talenti_comparison_check([poly_profile(1)], grid_size=g),
        lambda g: talenti_comparison_check([], grid_size=g),
    ],
    ids=["talenti_comparison_check", "empty_batch"],
)
def test_grid_size_rule(entry, grid_size):
    if type(grid_size) is int:
        with pytest.raises(PreconditionError, match="^grid_size too small for a meaningful"):
            entry(grid_size)
    else:
        with pytest.raises(DomainError, match="^grid_size must be an integer"):
            entry(grid_size)


def test_seeded_family_deterministic_and_signchanging():
    a = seeded_comparison_profiles(10)
    b = seeded_comparison_profiles(10)
    r = np.linspace(0.05, 0.95, 50)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.value(r), pb.value(r))
    # at least half the draws have sign-changing -Delta v
    def lap(v, rr):
        return v.d2(rr) + 3.0 * v.d1(rr) / rr

    signchanging = sum(
        1 for v in a if np.min(lap(v, r)) < 0.0 < np.max(lap(v, r))
    )
    assert signchanging >= 5
