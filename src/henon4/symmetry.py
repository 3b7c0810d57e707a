"""Radial-versus-nonradial scaling experiments for the truncated functionals.

Nonradial side: a fixed unit-energy bump u supported in the ball, translated
to x_a = (1 - 1/alpha, 0, 0, 0) and rescaled to radius 1/alpha.  The 4D
bi-Laplacian energy is scale invariant, so the translate stays on the unit
energy sphere, and

    F_m(u_alpha) = alpha^-4 * integral_B |x_a + y/alpha|^alpha g(u(|y|)) dy,

which reduces by polar decomposition about the symmetry axis to

    alpha^-4 * 4 pi * int_0^1 int_0^pi g(u(s)) R(s,th)^alpha s^3 sin^2 th dth ds,
    R(s,th)^2 = xbar^2 + 2 xbar (s/alpha) cos th + (s/alpha)^2.

This is a rigorous lower bound for the unconstrained supremum and scales like
alpha^-4.  The elementary minorant (1 - 2/alpha)^alpha * alpha^-4 * int g(u),
obtained by bounding the weight below on the support ball, is also computed
(the bump_paper_bound column).

Radial side: a certified lower estimate of the radial supremum by multistart
coordinate ascent over parametric families (boundary-adapted power profiles,
concentrating extremal members, off-origin ring bumps), each candidate
scalar-projected onto the unit energy sphere.  At sigma = 32 pi^2 the
concentrating members win at small alpha (up to alpha = 4..12, growing with
m), ring bumps from there to alpha = 16, and power profiles from alpha = 32
on.  Values decay like alpha^-5 (boundary-power class), consistent with the
alpha^{-9/2} upper bound for the radial supremum.

Crossover: the smallest grid alpha where the translated-bump value strictly
exceeds kappa = 1.05 times the radial search value; the margin column is the
log-ratio log(bump / (kappa * radial)), increasing past the crossover.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    Henon4Error,
    NonConvergence,
    NonFinite,
    OptFailure,
    PreconditionError,
    as_index,
)
from .moser import MoserParams, moser_navier
from .profiles import (
    BoundaryKind,
    FunctionalParams,
    RadialProfile,
    cos2_profile,
    exp_minus_taylor,
    laplacian_l2_sq,
    poly_profile,
    power_profile,
    ring_profile,
    scale_to_unit,
    sigma_alpha,
    unit_energy,
    weighted_functional,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec

__all__ = [
    "BumpSpec",
    "SearchOptions",
    "SweepRow",
    "SweepReport",
    "bump_profile",
    "translated_bump_value",
    "translated_bump_paper_bound",
    "radial_max_search",
    "crossover_detect",
    "check_sweep",
    "CROSSOVER_KAPPA",
    "fit_loglog_slope",
]

CROSSOVER_KAPPA = 1.05  # safety factor on the radial estimate


@dataclass(frozen=True)
class BumpSpec:
    """Named positive smooth bump, normalized to unit bi-Laplacian energy."""

    kind: str = "poly4"

    def __post_init__(self) -> None:
        if self.kind not in _BUMP_BASES:
            raise DomainError(f"unknown bump kind {self.kind!r}")


_BUMP_BASES = {
    "poly4": lambda: poly_profile(2),
    "cos2": cos2_profile,
}


def bump_profile(bump: BumpSpec, spec: QuadratureSpec = DEFAULT_SPEC) -> RadialProfile:
    return unit_energy(_BUMP_BASES[bump.kind](), spec)


def _check_bump_params(alpha: float, p: FunctionalParams) -> None:
    if alpha < 4.0:
        raise PreconditionError("translated bump requires alpha >= 4")
    if p.m is None:
        raise PreconditionError("the comparison concerns truncated functionals (m present)")
    if p.sigma > sigma_alpha(0.0) * (1.0 + 1e-12):
        raise PreconditionError("sigma must stay at or below 32 pi^2")


def check_sweep(p: FunctionalParams, alphas: Sequence[float]) -> None:
    """Hypotheses of a bump-versus-radial sweep; raises DomainError.

    At least 4 strictly increasing alphas, each finite and >= 4 so that the
    translated bump fits inside the ball; truncated functionals (m >= 1) at
    or below the unweighted threshold sigma_alpha(0) = 32 pi^2.
    """
    if len(alphas) < 4:
        raise DomainError("need at least 4 grid points")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise DomainError("alphas must be strictly increasing")
    if not all(math.isfinite(a) and a >= 4.0 for a in alphas):
        raise DomainError("translated bump requires finite alpha >= 4")
    if p.m is None or p.m < 1:
        raise DomainError("crossover concerns truncated functionals with m >= 1")
    if p.sigma > sigma_alpha(0.0) * (1.0 + 1e-12):
        raise DomainError("sigma must stay at or below 32 pi^2")


def translated_bump_value(
    alpha: float,
    p: FunctionalParams,
    bump: BumpSpec = BumpSpec(),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Exact F_m of the translated, 1/alpha-scaled bump (2D reduction).

    Evaluated by tensor Gauss-Legendre with node doubling until two
    successive refinements agree to 10 * rel_tol; raises NonConvergence
    when the 384-node rule still does not agree with the 192-node one.
    """
    _check_bump_params(alpha, p)
    u = bump_profile(bump, spec)
    xbar = 1.0 - 1.0 / alpha
    inv_a = 1.0 / alpha

    def tensor_value(n: int) -> float:
        xs, ws = np.polynomial.legendre.leggauss(n)
        s = 0.5 * (xs + 1.0)  # radius in (0, 1)
        ws_s = 0.5 * ws
        th = 0.5 * math.pi * (xs + 1.0)  # angle in (0, pi)
        ws_t = 0.5 * math.pi * ws
        val = u.value(s)
        gs = exp_minus_taylor(p.sigma * val * val, p.m) * s**3 * ws_s
        r_sq = (
            xbar**2
            + 2.0 * xbar * inv_a * np.outer(s, np.cos(th))
            + (inv_a * s[:, None]) ** 2
        )
        weight = np.exp(0.5 * alpha * np.log(r_sq)) * np.sin(th) ** 2 * ws_t[None, :]
        return 4.0 * math.pi * float(gs @ weight.sum(axis=1)) / alpha**4

    prev = tensor_value(48)
    for n in (96, 192, 384):
        cur = tensor_value(n)
        diff = abs(cur - prev)
        if diff <= 10.0 * spec.rel_tol * abs(cur):
            return cur
        prev = cur
    rel = diff / abs(cur) if cur else math.inf
    raise NonConvergence(
        f"translated bump at alpha={alpha:g}: 384 and 192 tensor nodes differ by "
        f"{rel:.3g} relative, above 10 * rel_tol = {10.0 * spec.rel_tol:.3g}"
    )


def translated_bump_paper_bound(
    alpha: float,
    p: FunctionalParams,
    bump: BumpSpec = BumpSpec(),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Elementary minorant (1 - 2/alpha)^alpha alpha^-4 integral_B g(u)."""
    _check_bump_params(alpha, p)
    u = bump_profile(bump, spec)
    base = weighted_functional(u, FunctionalParams(0.0, p.sigma, p.m), spec)
    return (1.0 - 2.0 / alpha) ** alpha / alpha**4 * base


# ---------------------------------------------------------------------------
# radial search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchOptions:
    """Seed of the rng that perturbs the extra search starts."""

    seed: int = 0

    def __post_init__(self) -> None:
        if as_index(self.seed, "seed") < 0:  # an integer, as numpy's rng needs
            raise DomainError("seed must be >= 0")


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SWEEPS = 2  # coordinate-ascent passes per start
_GOLDEN_ITERS = 16
_JITTER_STARTS = 3  # extra rng-perturbed starts on top of the base seeds


def _golden_max(fn, lo: float, hi: float, iters: int):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
        if fc >= best_f:
            best_x, best_f = c, fc
        if fd >= best_f:
            best_x, best_f = d, fd
    return best_x, best_f


_FAMILY_BOUNDS = {
    "pow": ((0.5, 12.0),),
    "moser": ((-12.0, -0.95),),  # log10 epsilon
    "ring": ((0.0, 0.97), (0.03, 0.6)),
}


def _family_profile(family: str, params: Sequence[float]) -> RadialProfile:
    if family == "pow":
        return power_profile(params[0])
    if family == "moser":
        return moser_navier(MoserParams(10.0 ** params[0], BoundaryKind.NAVIER))
    if family == "ring":
        return ring_profile(params[0], params[1])
    raise DomainError(f"unknown family {family!r}")


# Energies of search candidates, for the life of the module.  4096 entries
# hold every distinct point of a two-sweep pass, at about 0.2 KB each.
_ENERGY_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=_ENERGY_MEMO_SIZE)
def _family_energy(family: str, params: tuple, spec: QuadratureSpec) -> float:
    """||Delta u||_2^2 of a search candidate; it depends on no alpha, sigma or m."""
    return laplacian_l2_sq(_family_profile(family, params), spec)


def _base_seeds() -> list:
    return [
        ("pow", [1.2]),
        ("pow", [2.0]),
        ("pow", [3.5]),
        ("moser", [-2.0]),
        ("moser", [-4.0]),
        ("ring", [0.3, 0.3]),
        ("ring", [0.7, 0.15]),
        ("ring", [0.9, 0.08]),
    ]


def radial_max_search(
    alpha: float,
    p: FunctionalParams,
    opts: SearchOptions = SearchOptions(),
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """Certified lower estimate of the radial supremum of F_m.

    Multistart coordinate ascent over the parametric families; every
    candidate is scalar-projected onto the unit energy sphere before the
    functional is evaluated, so any returned value is a true lower bound.
    Each distinct candidate is evaluated once per call.  A candidate's
    energy ||Delta u||_2^2 does not depend on alpha, sigma or m, so it is
    kept in a module-level memo keyed by (family, params, quadrature spec)
    for the life of the process (least recently used entries beyond 4096
    are dropped); only its value, not the profile, is kept.  Deterministic
    for a fixed opts.seed.  Returns (value, profile).
    """
    if p.sigma > sigma_alpha(0.0) * (1.0 + 1e-12):
        raise PreconditionError("sigma must stay at or below 32 pi^2")
    if p.m is None or p.m < 1:
        raise PreconditionError("radial search targets truncated functionals, m >= 1")
    params_alpha = FunctionalParams(alpha, p.sigma, p.m)

    def unit_candidate(family: str, params) -> RadialProfile:
        energy = _family_energy(family, tuple(params), spec)
        return scale_to_unit(_family_profile(family, params), energy)

    def objective(family: str, params) -> float:
        try:
            val = weighted_functional(unit_candidate(family, params), params_alpha, spec)
        except Henon4Error:
            return -math.inf
        return val if math.isfinite(val) else -math.inf

    seen = {}  # (family, params) -> objective value, for this call only

    def lookup(family: str, params) -> float:
        key = (family, tuple(params))
        if key not in seen:
            seen[key] = objective(family, params)
        return seen[key]

    rng = np.random.default_rng(opts.seed)
    starts = list(_base_seeds())
    for _ in range(_JITTER_STARTS):
        family, params = starts[int(rng.integers(len(_base_seeds())))]
        bounds = _FAMILY_BOUNDS[family]
        jittered = [
            float(np.clip(x * rng.uniform(0.8, 1.25), lo, hi))
            for x, (lo, hi) in zip(params, bounds)
        ]
        starts.append((family, jittered))

    best_val = -math.inf
    best_family = None
    best_params = None
    for family, params in starts:
        params = list(params)
        bounds = _FAMILY_BOUNDS[family]
        val = lookup(family, params)
        for _ in range(_SWEEPS):
            for dim, (lo, hi) in enumerate(bounds):

                def line(x, dim=dim):
                    trial = list(params)
                    trial[dim] = x
                    return lookup(family, trial)

                x, fx = _golden_max(line, lo, hi, _GOLDEN_ITERS)
                if fx > val:
                    params[dim] = x
                    val = fx
        if val > best_val:
            best_val = val
            best_family = family
            best_params = params

    if not math.isfinite(best_val):
        raise OptFailure("all radial search starts failed")
    return best_val, unit_candidate(best_family, best_params)


# ---------------------------------------------------------------------------
# sweep report and crossover detection
# ---------------------------------------------------------------------------


def fit_loglog_slope(alphas: Sequence[float], values: Sequence[float]) -> tuple:
    """Least-squares slope of log(value) against log(alpha); returns
    (slope, max_abs_residual)."""
    x = np.log(np.asarray(alphas, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(np.max(np.abs(resid)))


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    bump_exact: float
    bump_paper_bound: float
    radial_max: float
    radial_profile_id: str

    def crossover_margin(self) -> float:
        """log(bump_exact / (kappa * radial_max)) with kappa = CROSSOVER_KAPPA;
        positive past crossover."""
        return math.log(self.bump_exact / (CROSSOVER_KAPPA * self.radial_max))


@dataclass(frozen=True)
class SweepReport:
    sigma: float
    m: int
    rows: tuple
    fitted_slopes: dict
    alpha_star: Optional[float]


def crossover_detect(
    p: FunctionalParams,
    alphas: Sequence[float],
    bump: BumpSpec = BumpSpec(),
    opts: SearchOptions = SearchOptions(),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> SweepReport:
    """Sweep the grid, fit decay slopes, and locate the numerical crossover.

    alpha_star is the smallest grid alpha whose translated-bump value strictly
    exceeds kappa = 1.05 times the radial search value (both sides are lower
    bounds of their suprema, hence the safety factor and the 'numerical
    crossover' label).  Slopes are least-squares on log-log over the last
    four grid points.
    """
    alphas = [float(a) for a in alphas]
    check_sweep(p, alphas)

    rows = []
    for a in alphas:
        bump_exact = translated_bump_value(a, p, bump, spec)
        bump_bound = translated_bump_paper_bound(a, p, bump, spec)
        radial_val, radial_prof = radial_max_search(a, p, opts, spec)
        for name, v in (("bump_exact", bump_exact), ("radial_max", radial_val)):
            if not 0.0 < v < math.inf:
                raise NonFinite(
                    f"{name} = {v!r} at alpha={a:g}: the slopes and the margin need its log"
                )
        rows.append(
            SweepRow(
                alpha=a,
                bump_exact=bump_exact,
                bump_paper_bound=bump_bound,
                radial_max=radial_val,
                radial_profile_id=radial_prof.description,
            )
        )

    tail = rows[-4:]  # check_sweep guarantees at least four
    bump_slope, bump_resid = fit_loglog_slope(
        [r.alpha for r in tail], [r.bump_exact for r in tail]
    )
    radial_slope, radial_resid = fit_loglog_slope(
        [r.alpha for r in tail], [r.radial_max for r in tail]
    )

    alpha_star = None
    for r in rows:
        if r.bump_exact > CROSSOVER_KAPPA * r.radial_max:
            alpha_star = r.alpha
            break

    return SweepReport(
        sigma=p.sigma,
        m=int(p.m),
        rows=tuple(rows),
        fitted_slopes={
            "bump": bump_slope,
            "radial": radial_slope,
            "bump_max_residual": bump_resid,
            "radial_max_residual": radial_resid,
        },
        alpha_star=alpha_star,
    )
