"""Decreasing rearrangement and the radial comparison oracle.

The rearrangement works in the 4-volume coordinate mu = rho^4 in [0, 1] (the
fraction of |B| inside radius rho).  A field is sampled at the centers of a
uniform radius grid, each sample weighted by its shell volume fraction
((i+1)/M)^4 - (i/M)^4; sorting the samples by value, carrying the weights,
yields the quantile function of the field, i.e. its decreasing rearrangement:
sorted value k occupies the measure slab between consecutive cumulative
weights and is placed at the slab's midpoint, its mu-knot.  Integral
functionals of the rearrangement, summed over the slabs, then agree with
those of the field up to the O(M^-2) midpoint sampling error, because the
sort is a weighted permutation.  A call checks a sequence of profiles: it
builds one grid and allocates its M-sample arrays (samples, sorted values
with their carried weights, mu-knots, the solve's per-cell arrays) once, and
each profile refills them in place; nothing outlives the call.

The radial Poisson solve

    -Delta u = f  in B,  u = 0 on the boundary,
    u(rho) = int_rho^1 s^{-3} ( int_0^s f(tau) tau^3 dtau ) ds

is integrated cell-by-cell in closed form against the interpolant of f that
is linear in mu between the knots (the inner cumulative is quadratic in mu
per cell; the outer integrand is then a combination of mu^{-1/2}, mu^{1/2},
mu^{3/2} antiderivatives): no quadrature error, but each cell integral is a
difference anti(x1) - anti(x0) of values typically 1e5-1e6 times larger (the
quadratic is expanded about y = 0), so float64 u is off by up to ~5e-8 at the
v#-knots against the same chain computed in extended precision.

The oracle's other integrals come from `profiles` and `quadrature`:
||Delta v||^2 of every profile is one `laplacian_l2_sq_batch` and the square
of every v one `weighted_lp_norm_p_batch`; the square of u and the solve's
cross-check (one `integrate_batch`) are integrated profile by profile, while
the arrays that u reads hold that profile's solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NonFinite, PreconditionError, as_index
from .profiles import (
    OMEGA_3,
    BoundaryKind,
    RadialProfile,
    laplacian_l2_sq_batch,
    weighted_lp_norm_p,
    weighted_lp_norm_p_batch,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_batch

__all__ = [
    "talenti_comparison_check",
    "ComparisonReport",
    "seeded_comparison_profiles",
]

_DEFAULT_GRID = 100_000
_BLOCK = 8192  # points per block in the passes over the samples: bounds their temporaries


def _radius_grid(grid_size: int):
    """Cell centers and shell-volume weights of the radius grid; each call builds them."""
    grid_size = as_index(grid_size, "grid_size")
    if grid_size < 16:
        raise PreconditionError("grid_size too small for a meaningful rearrangement")
    edges = np.linspace(0.0, 1.0, grid_size + 1)
    return 0.5 * (edges[:-1] + edges[1:]), edges[1:] ** 4 - edges[:-1] ** 4


def _blocks(n: int):
    return [(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]


def _sample(g, radii: np.ndarray, out: np.ndarray) -> None:
    """out = -|g(radii)|, evaluated in `_BLOCK` pieces: the ascending sort key
    of the decreasing rearrangement of |g|."""
    for lo, hi in _blocks(radii.size):
        np.abs(g(radii[lo:hi]), out=out[lo:hi])
    np.negative(out, out=out)


def _rearrange(samples: np.ndarray, weights: np.ndarray, knots: np.ndarray, sharp: np.ndarray) -> None:
    """Sort the samples of `_sample` stably, carrying their measure weights:
    `sharp` gets the values descending, padded with their end values, and
    knots[1:-1] the carried weights, which `_midpoints` turns into mu-knots.
    `samples` is free afterwards."""
    order = np.argsort(samples, kind="stable")
    vals = sharp[1:-1]
    # the indices are in range; mode "raise" would write through a copy of `out`
    np.take(samples, order, out=vals, mode="clip")
    np.negative(vals, out=vals)
    sharp[0], sharp[-1] = sharp[1], sharp[-2]
    np.take(weights, order, out=knots[1:-1], mode="clip")


def _midpoints(knots: np.ndarray) -> None:
    """Carried weights in knots[1:-1] -> the slab midpoints, padded with mu = 0 and 1."""
    n = knots.size - 2
    knots[0] = 0.0
    np.cumsum(knots[1:-1], out=knots[1:-1])
    knots[-2] = 1.0  # rounding guard; weights sum to 1 exactly in real terms
    # right to left, so each block still reads the cumulative weight left of it
    for lo, hi in reversed(_blocks(n)):
        np.multiply(0.5, knots[lo:hi] + knots[lo + 1 : hi + 1], out=knots[lo + 1 : hi + 1])
    knots[-1] = 1.0


class _SolveChain:
    """Closed-form integration chain for -Delta u = f against a mu-interpolant.

    `knots` are the mu-knots padded with 0 and 1 and `f_knots` the values
    padded with their end values; both are the caller's arrays, kept, not
    copied, and `fit` integrates against their current contents.  Per cell it
    stores the slope, the inner cumulative at the left knot, the outer
    antiderivative at the right knot and the suffix of whole-cell outer
    integrals, in arrays allocated once and refilled by each `fit`; the
    quadratic's coefficients are recomputed from these wherever they are
    needed.  Evaluations cost O(log M) per point.
    """

    def __init__(self, knots: np.ndarray, f_knots: np.ndarray) -> None:
        self.knots, self.f_knots = knots, f_knots
        n = knots.size - 1
        self.slope, self.right = np.empty(n), np.empty(n)
        self.cum, self.suffix = np.empty(n + 1), np.empty(n + 1)

    def fit(self) -> None:
        knots, f_knots = self.knots, self.f_knots
        n = self.slope.size
        self.cum[0] = self.suffix[n] = 0.0
        for lo, hi in _blocks(n):
            x0, x1 = knots[lo:hi], knots[lo + 1 : hi + 1]
            f0, f1 = f_knots[lo:hi], f_knots[lo + 1 : hi + 1]
            h = x1 - x0
            self.slope[lo:hi] = np.where(h > 0, (f1 - f0) / np.where(h > 0, h, 1.0), 0.0)
            # G(x) = int_0^s f tau^3 dtau at x = s^4; per cell quadratic in x
            cell = 0.25 * 0.5 * (f0 + f1) * h
            if lo:  # the running total enters as the first addend: one cumsum's rounding
                cell[0] += self.cum[lo]
            np.cumsum(cell, out=self.cum[lo + 1 : hi + 1])
            # whole-cell integrals of G(y) y^{-3/2}
            coeffs = self._coeffs(slice(lo, hi))
            self.right[lo:hi] = self._anti(x1, coeffs)
            self.suffix[lo:hi] = self.right[lo:hi] - self._anti(x0, coeffs)
        for lo, hi in reversed(_blocks(n)):  # suffix sums, accumulated leftward
            part = self.suffix[lo:hi][::-1]
            if hi < n:
                part[0] += self.suffix[hi]
            np.cumsum(part, out=part)

    def _coeffs(self, cell):
        """-2 a0, 2 a1, 2/3 a2 of G(y) = a0 + a1 y + a2 y^2 on the given cells,
        expanded around y = 0 (a0 = 0 exactly on the padding cell 0, x0 = slope = 0)."""
        x0, f0, slope = self.knots[cell], self.f_knots[cell], self.slope[cell]
        a0 = self.cum[cell] - 0.25 * f0 * x0 + 0.125 * slope * x0 * x0
        return -2.0 * a0, 2.0 * (0.25 * (f0 - slope * x0)), (2.0 / 3.0) * (0.125 * slope)

    @staticmethod
    def _anti(y, coeffs):
        # antiderivative of (a0 + a1 y + a2 y^2) y^{-3/2}, with y = 0 read as 1e-300
        ys = np.sqrt(np.maximum(y, 1e-300))
        return coeffs[0] / ys + coeffs[1] * ys + coeffs[2] * ys**3

    def _locate(self, x):
        return np.clip(np.searchsorted(self.knots, x) - 1, 0, self.knots.size - 2)

    def inner_cumulative(self, x):
        """G at x = s^4."""
        x = np.asarray(x, dtype=float)
        idx = self._locate(x)
        dx = x - self.knots[idx]
        return self.cum[idx] + 0.25 * (self.f_knots[idx] * dx + 0.5 * self.slope[idx] * dx * dx)

    def outer_suffix(self, x):
        """u(rho) = (1/4) int_{x}^{1} G(y) y^{-3/2} dy at x = rho^4, in closed form."""
        x = np.asarray(x, dtype=float)
        idx = self._locate(x)
        coeffs = self._coeffs(idx)
        partial = self.right[idx] - self._anti(x, coeffs)
        return 0.25 * (partial + self.suffix[idx + 1])


def _solve(chain: _SolveChain) -> RadialProfile:
    """u solving -Delta u = f on the chain's current knots, checked by
    `_residual_guard`; u reads the chain's arrays, so it holds until they are
    refilled."""
    chain.fit()
    knots, f_knots = chain.knots, chain.f_knots
    f_mu = lambda mu: np.interp(mu, knots, f_knots)  # end values held outside the knots

    def value(r):
        rr = np.asarray(r, dtype=float)
        return chain.outer_suffix(rr**4)

    def d1(r):
        rr = np.asarray(r, dtype=float)
        rsafe = np.maximum(rr, 1e-150)
        return -chain.inner_cumulative(rr**4) / rsafe**3

    def d2(r):
        rr = np.asarray(r, dtype=float)
        rsafe = np.maximum(rr, 1e-150)
        return -f_mu(rr**4) + 3.0 * chain.inner_cumulative(rr**4) / rsafe**4

    u = RadialProfile(value, d1, d2, BoundaryKind.NAVIER, "poisson-solution")
    _residual_guard(u, chain, f_mu, float(f_knots[0]))  # |f| descending: sup|f| leads
    return u


def _residual_guard(u: RadialProfile, chain: "_SolveChain", f_mu, f_sup: float) -> None:
    """A posteriori verification of the solve on interior nodes.

    (a) the pointwise relation -u'' - 3u'/rho = f must hold to 1e-6 sup|f|
        (for the integrated interpolant it is an algebraic identity, so this
        catches coefficient errors in the chain);
    (b) the closed-form outer antiderivatives are cross-checked against an
        independent adaptive quadrature of G(s)/s^3.
    """
    if f_sup == 0.0:
        return
    rho = np.linspace(0.05, 0.95, 61)
    res = np.abs(-u.d2(rho) - 3.0 * u.d1(rho) / rho - f_mu(rho**4))
    worst = float(np.max(res))
    if worst > 1e-6 * f_sup:
        raise NonFinite(
            f"poisson residual {worst:.3e} exceeds 1e-6 * sup|f| = {1e-6 * f_sup:.3e}"
        )
    los = (0.25, 0.7)
    g = lambda s, parts: chain.inner_cumulative(s**4) / s**3
    for lo, cross in zip(los, integrate_batch(g, [(lo, 1.0) for lo in los], DEFAULT_SPEC)):
        ref, got = cross.value, float(u.value(np.array([lo]))[0])
        # the chain's own rounding puts u up to ~5e-8 off (module docstring);
        # the adaptive reference agrees with an extended-precision chain to
        # ~1e-10, so the guard is loose enough for the chain, not the reference
        if abs(got - ref) > 1e-6 * max(abs(ref), f_sup):
            raise NonFinite(
                f"poisson solve cross-check at rho={lo}: {got!r} vs quadrature {ref!r}"
            )


@dataclass(frozen=True)
class ComparisonReport:
    holds: bool
    min_gap: float
    l2_rel_err: float  # | ||f||_2 - ||f#||_2 | / ||f||_2
    v_sq_integral: float
    u_sq_integral: float


def talenti_comparison_check(
    vs: Sequence[RadialProfile], spec: QuadratureSpec = DEFAULT_SPEC, grid_size: int = _DEFAULT_GRID
) -> list:
    """Comparison oracle on each profile v: the symmetrized problem dominates
    pointwise.  One `ComparisonReport` per profile, in order.

    Builds f = -Delta v from the closed-form derivatives, rearranges |f|,
    solves -Delta u = f# and checks u >= v# - 1e-8 at the rearrangement
    knots, rearrangement invariance of ||.||_2 to 1e-8 relative, and the
    induced integral comparison of squares.  ||f||_2 is the square root of
    `laplacian_l2_sq_batch`; ||f#||_2 is the exact sum over the slabs.  The
    call builds one radius grid and one set of sample arrays, which each
    profile refills.
    """
    radii, weights = _radius_grid(grid_size)
    n = radii.size
    f_knots, f_sharp, v_knots, v_sharp = (np.empty(n + 2) for _ in range(4))
    chain = _SolveChain(f_knots, f_sharp)
    samples = chain.slope[:-1]  # free until `_solve` fits the chain
    f_vals, v_mu, v_vals = f_sharp[1:-1], v_knots[1:-1], v_sharp[1:-1]
    f_l2_sqs = laplacian_l2_sq_batch(vs, spec)
    v_sqs = weighted_lp_norm_p_batch([(v, 2.0, 0.0) for v in vs], spec)
    reports = []
    for v, f_l2_sq, v_sq in zip(vs, f_l2_sqs, v_sqs):
        # Delta v = -f; only |f| is sampled
        _sample(lambda r: v.d2(r) + 3.0 * v.d1(r) / np.maximum(r, 1e-150), radii, samples)
        if not np.all(np.isfinite(samples)):
            raise NonFinite("Delta v not finite on the sample grid")
        _rearrange(samples, weights, f_knots, f_sharp)
        # integral_B (f#)^2 for the step rearrangement: exact measure-space
        # sum over the carried weights, which f_knots holds until `_midpoints`
        np.multiply(f_vals, f_vals, out=samples)
        np.multiply(samples, f_knots[1:-1], out=samples)
        fs_l2 = math.sqrt((OMEGA_3 / 4.0) * float(np.sum(samples)))
        _midpoints(f_knots)
        _sample(v.value, radii, samples)
        _rearrange(samples, weights, v_knots, v_sharp)
        _midpoints(v_knots)

        u = _solve(chain)
        min_gap = float(np.min([
            np.min(u.value(v_mu[lo:hi] ** 0.25) - v_vals[lo:hi]) for lo, hi in _blocks(n)
        ]))

        f_l2 = math.sqrt(f_l2_sq)
        # both norms vanish when Delta v = 0, and then so does their difference
        l2_rel = abs(fs_l2 - f_l2) / f_l2 if f_l2 or fs_l2 else 0.0

        reports.append(ComparisonReport(
            holds=(min_gap >= -1e-8) and (l2_rel <= 1e-8),
            min_gap=min_gap,
            l2_rel_err=l2_rel,
            v_sq_integral=v_sq,
            u_sq_integral=weighted_lp_norm_p(u, 2.0, 0.0, spec),
        ))
    return reports


def seeded_comparison_profiles(count: int = 10, seed: int = 20240807) -> list:
    """Deterministic family of smooth radial v with sign-changing Laplacian.

    Each member is (1 - r^2)(a + b r^2 + c r^4), an even polynomial vanishing
    on the boundary; the coefficient ranges make -Delta v change sign for
    most draws.
    """
    count, seed = as_index(count, "count"), as_index(seed, "seed")
    if count < 1 or seed < 0:
        raise DomainError("need count >= 1 and seed >= 0")
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        a = rng.uniform(0.5, 1.5)
        b = rng.uniform(-2.0, 2.0)
        c = rng.uniform(-1.5, 1.5)
        p2 = b - a
        p4 = c - b
        p6 = -c

        def value(r, a=a, p2=p2, p4=p4, p6=p6):
            rr2 = np.asarray(r, dtype=float) ** 2
            return a + p2 * rr2 + p4 * rr2**2 + p6 * rr2**3

        def d1(r, p2=p2, p4=p4, p6=p6):
            rr = np.asarray(r, dtype=float)
            return 2.0 * p2 * rr + 4.0 * p4 * rr**3 + 6.0 * p6 * rr**5

        def d2(r, p2=p2, p4=p4, p6=p6):
            rr = np.asarray(r, dtype=float)
            return 2.0 * p2 + 12.0 * p4 * rr**2 + 30.0 * p6 * rr**4

        out.append(RadialProfile(value, d1, d2, BoundaryKind.NAVIER, f"seeded:{seed}:{k}"))
    return out
