"""Radial-versus-nonradial scaling experiments for the truncated functionals.

Nonradial side: a fixed bump u supported in the ball, scaled onto the unit
energy sphere by its closed-form energy, translated to
x_a = (1 - 1/alpha, 0, 0, 0) and rescaled to radius 1/alpha.  The 4D
bi-Laplacian energy is scale invariant, so the translate stays on the unit
energy sphere, and

    F_m(u_alpha) = alpha^-4 * integral_B |x_a + y/alpha|^alpha g(u(|y|)) dy,

which reduces by polar decomposition about the symmetry axis to one integral

    4 pi alpha^-4 int_0^1 g(u(s)) s^3 A^nu S ds,   A = xbar^2 + d^2,  d = s/alpha,
    S = int_0^pi (1 + z cos th)^nu sin^2 th dth,   z = 2 xbar d / A,  nu = alpha/2,

as R^2 = A (1 + z cos th); `_angular_series` sums S in closed form.

This is a rigorous lower bound for the unconstrained supremum and scales like
alpha^-4.  The elementary minorant (1 - 2/alpha)^alpha * alpha^-4 * int g(u),
obtained by bounding the weight below on the support ball, is also computed
(the bump_paper_bound column).

Radial side: a certified lower estimate of the radial supremum by coordinate
ascent from one start per parametric family (boundary-adapted power profiles,
concentrating extremal members, off-origin ring bumps), each candidate
scaled onto the unit energy sphere by the exact energy its constructor
sets.  The ascent ranks the candidates by `functional_scorer`: F_m on the
fixed rule of the first GK15 round of its tau integral, two dot products
per candidate, checked by its G7 sum.  One search call takes the whole
grid: the ascents are generators, every (alpha, family) ascent runs in
lockstep, and each round's candidates are scored in one scorer call,
whose series is one `exp_minus_taylor` call per m; each alpha's result is
bit for bit its search alone.  A candidate the rule cannot score is
integrated, and so is each family's final point: the families are
compared, and the sweep reports, on adaptive integrals.  The bumps and the
search families share one table, `_FAMILIES`, and one normaliser, `_unit`,
so the sweep integrates no energy.  At sigma = 32 pi^2 the concentrating
members win at small alpha (up to alpha = 4..12, growing with m), ring
bumps from there to alpha = 16, and power profiles from alpha = 32 on.  On
the default grid 16..512 the radial values fit slopes of about -2.9 (m = 0),
-4.8 (m = 1) and -6.6 (m = 2) in log-log, steepening towards -(2m+3) as
alpha grows.  The search returns None at an alpha where every family fails.

Crossover: the smallest grid alpha where the translated-bump value strictly
exceeds kappa = 1.05 times the radial search value; the margin column is the
log-ratio log(bump / (kappa * radial)), increasing past the crossover.  At
m = 0, the control, the bump's alpha^-4 never overtakes the radial alpha^-3.
The sweep raises OptFailure at the first grid alpha where the search failed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    Henon4Error,
    NonFinite,
    OptFailure,
    PreconditionError,
)
from .moser import MoserParams, moser_navier
from .profiles import (
    BoundaryKind,
    FunctionalParams,
    RadialProfile,
    cos2_profile,
    exp_minus_taylor,
    functional_scorer,
    poly_profile,
    power_profile,
    ring_profile,
    scale_to_unit,
    sigma_alpha,
    weighted_functional,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate

__all__ = [
    "BumpSpec",
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
_SIGMA_MAX = sigma_alpha(0.0) * (1.0 + 1e-12)  # 32 pi^2, the bound of `_check`'s sigma rule


# ---------------------------------------------------------------------------
# profile families: the translated bumps and the radial search candidates
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    """Profile as a function of the parameters, whose constructor sets its
    closed-form energy; its search box (one (lo, hi) each) and the search's
    start."""

    profile: Callable
    box: tuple = ()
    start: tuple = ()


# The search compares its families in table order (ties go to the first).
_FAMILIES = {
    "poly4": _Family(lambda: poly_profile(2)),
    "cos2": _Family(cos2_profile),
    "pow": _Family(power_profile, ((0.5, 12.0),), (2.0,)),
    "moser": _Family(
        lambda x: moser_navier(MoserParams(10.0**x, BoundaryKind.NAVIER)),
        ((-12.0, -0.95),), (-2.0,),  # x = log10 epsilon
    ),
    "ring": _Family(ring_profile, ((0.0, 0.97), (0.03, 0.6)), (0.3, 0.3)),
}


def _unit(name: str, params: Sequence[float] = ()) -> RadialProfile:
    """The family member at `params` on the unit energy sphere."""
    u = _FAMILIES[name].profile(*params)
    return scale_to_unit(u, u.energy)


@dataclass(frozen=True)
class BumpSpec:
    """Named positive smooth bump of unit energy: a `_FAMILIES` entry without a box."""

    kind: str = "poly4"

    def __post_init__(self) -> None:
        if self.kind not in _FAMILIES or _FAMILIES[self.kind].box:
            raise DomainError(f"unknown bump kind {self.kind!r}")


def bump_profile(bump: BumpSpec) -> RadialProfile:
    return _unit(bump.kind)


def _check(p: FunctionalParams, alphas: Sequence[float] = ()) -> None:
    """The comparison's hypotheses, each a PreconditionError (a DomainError):
    every alpha finite and >= 4, so that the translated bump fits inside the
    ball; m given, m = 0 being the module docstring's control; sigma at most
    Adams' unweighted threshold 32 pi^2 (Ann. of Math. 128, 1988), above which a
    sequence concentrating at x0 != 0, where the weight |x0|^alpha is a
    constant, makes the full supremum infinite at every alpha while the
    radial one is finite below sigma_alpha."""
    if not all(math.isfinite(a) and a >= 4.0 for a in alphas):
        raise PreconditionError("translated bump requires finite alpha >= 4")
    if p.m is None:
        raise PreconditionError("crossover concerns truncated functionals with m >= 0")
    if p.sigma > _SIGMA_MAX:
        raise PreconditionError("sigma must stay at or below 32 pi^2")


def check_sweep(p: FunctionalParams, alphas: Sequence[float]) -> None:
    """Hypotheses of a bump-versus-radial sweep; raises DomainError: at
    least 4 strictly increasing alphas, and those of `_check`."""
    if len(alphas) < 4:
        raise DomainError("need at least 4 grid points")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise DomainError("alphas must be strictly increasing")
    _check(p, alphas)


def _angular_series(nu: float, z: np.ndarray) -> np.ndarray:
    """S = (pi/2) 2F1(-nu/2, (1-nu)/2; 2; z^2) = sum_k t_k over z, t_0 = pi/2,
    t_{k+1} = t_k ((nu-2k) z)((nu-2k-1) z)/((2k+2)(2k+4)): the binomial series
    of (1 + z cos th)^nu, whose odd powers of cos th integrate to 0.  Each
    factor (nu-j) z is at most nu z <= alpha/(alpha-1) <= 4/3, whereas
    (nu-2k)(nu-2k-1) overflows past nu ~ 1e154 and z^2 underflows.  It stops at
    the first |t_k| <= 2^-56 sum, in absolute value, as the terms change sign
    once when 2k < nu < 2k+1.  For alpha >= 4 and s <= 1, z <= min(0.6,
    2/(alpha-1)), and every |t_{k+1}/t_k| is below 0.36 (nu(nu-1) z^2/8 < 1/8
    while 2k+1 <= nu, z^2 after): the dropped tail is smaller than the last
    term kept and changes no bit of the sum."""
    term = total = np.full_like(z, 0.5 * math.pi)
    k = 0
    while np.any(np.abs(term) > 2.0**-56 * total):
        term = term * ((nu - 2 * k) / (2 * k + 2) * z) * ((nu - 2 * k - 1) / (2 * k + 4) * z)
        total = total + term
        k += 1
    return total


def translated_bump_value(
    alpha: float,
    p: FunctionalParams,
    bump: BumpSpec = BumpSpec(),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Exact F_m of the translated, 1/alpha-scaled bump, the one integral of
    the module docstring; A^nu = exp(nu log1p(d^2 - (2 - 1/alpha)/alpha)), as
    log A of a rounded A ~ 1 would be off by an ulp times nu.  alpha**-4.0
    underflows quietly where alpha**4 would overflow (alpha > 1e77)."""
    _check(p, (alpha,))
    u = bump_profile(bump)
    xbar = 1.0 - 1.0 / alpha
    nu = 0.5 * alpha

    def integrand(s):
        d = s / alpha
        a_minus_1 = d * d - (2.0 - 1.0 / alpha) / alpha
        z = 2.0 * xbar * d / (1.0 + a_minus_1)
        weight = np.exp(nu * np.log1p(a_minus_1)) * _angular_series(nu, z)
        return exp_minus_taylor(p.sigma * u.value(s) ** 2, p.m) * s**3 * weight

    return 4.0 * math.pi * integrate(integrand, 0.0, 1.0, spec, u.breakpoints).value * alpha**-4.0


def translated_bump_paper_bound(
    alpha: float,
    p: FunctionalParams,
    bump: BumpSpec = BumpSpec(),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Elementary minorant (1 - 2/alpha)^alpha alpha^-4 integral_B g(u)."""
    _check(p, (alpha,))
    return _paper_bound(alpha, _paper_base(p, bump, spec))


def _paper_base(p: FunctionalParams, bump: BumpSpec, spec: QuadratureSpec) -> float:
    """integral_B g(u) of the unit bump: the alpha-independent factor of
    `translated_bump_paper_bound`."""
    return weighted_functional(bump_profile(bump), FunctionalParams(0.0, p.sigma, p.m), spec)


def _paper_bound(alpha: float, base: float) -> float:
    return math.exp(alpha * math.log1p(-2.0 / alpha)) * alpha**-4.0 * base  # no rounded base


# ---------------------------------------------------------------------------
# radial search
# ---------------------------------------------------------------------------


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SWEEPS = 2  # coordinate-ascent passes per family
_GOLDEN_ITERS = 16


def _golden_max(point: Callable, lo: float, hi: float, iters: int):
    """Golden-section ascent on [lo, hi] as a generator: it yields the
    candidate point(x) of each probe x, is sent that candidate's value, and
    returns the best (x, value)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = yield point(c)
    fd = yield point(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = yield point(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = yield point(d)
        if fc >= best_f:
            best_x, best_f = c, fc
        if fd >= best_f:
            best_x, best_f = d, fd
    return best_x, best_f


def _ascent(family: str):
    """Coordinate ascent over the family's box from its start, each line a
    golden section over the whole box, as a generator: it yields each
    candidate (family, params), is sent its value, and returns the final
    params."""
    entry = _FAMILIES[family]
    params = entry.start
    val = yield family, params
    for _ in range(_SWEEPS):
        for dim, (lo, hi) in enumerate(entry.box):

            def point(x):
                return family, params[:dim] + (x,) + params[dim + 1 :]

            x, fx = yield from _golden_max(point, lo, hi, _GOLDEN_ITERS)
            if fx > val:
                _, params = point(x)
                val = fx
    return params


def radial_max_search(
    alphas: Sequence[float],
    p: FunctionalParams,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> list:
    """Certified lower estimate of the radial supremum of F_m at each alpha
    of the grid; returns one (value, profile) per alpha, in grid order.

    At each alpha, coordinate ascent over the parametric families from one
    start each (`_ascent`).  Every candidate is scalar-projected onto the
    unit energy sphere before the functional is evaluated, so any returned
    value is a true lower bound.  Every (alpha, family) ascent runs in
    lockstep: each is advanced until it waits on a candidate that its
    alpha's memo does not hold, and then every waiting candidate is scored
    in one call of `functional_scorer`, or integrated (`objective`) where
    the scorer returns None.  Each distinct candidate is built once per
    call, with the closed-form energy its constructor sets (`_unit`), and
    evaluated once per alpha.  Each family's final point is then
    integrated, unless its value already was, and the families are compared
    in table order on those integrals, so each returned value is an
    adaptive integral at `spec`.  An ascent is sent the values it would be
    sent alone, so each alpha's result is bit for bit its search alone.
    Nothing is kept between calls, and nothing random enters.  Returns None
    at an alpha where every family fails.
    """
    _check(p)
    grid = [FunctionalParams(a, p.sigma, p.m) for a in alphas]
    families = [family for family, entry in _FAMILIES.items() if entry.box]
    score = functional_scorer(spec)

    def objective(u: RadialProfile, params_alpha: FunctionalParams) -> float:
        try:
            val = weighted_functional(u, params_alpha, spec)
        except Henon4Error:
            return -math.inf
        return val if math.isfinite(val) else -math.inf

    units = {}  # (family, params) -> unit profile, None where it cannot be built
    seen = [{} for _ in grid]  # per alpha: (family, params) -> (value, adaptive?)
    ascents = {(i, family): _ascent(family) for i in range(len(grid)) for family in families}
    waiting = {slot: next(ascent) for slot, ascent in ascents.items()}
    finals = {}  # (alpha index, family) -> final params
    while waiting:
        for slot, key in list(waiting.items()):
            memo = seen[slot[0]]
            try:
                while key in memo:
                    key = ascents[slot].send(memo[key][0])
                waiting[slot] = key
            except StopIteration as stop:
                finals[slot] = stop.value
                del waiting[slot]
        batch = []
        for (i, _), key in waiting.items():
            if key not in units:
                try:
                    units[key] = _unit(*key)
                except Henon4Error:
                    units[key] = None
            if units[key] is None:
                seen[i][key] = (-math.inf, True)
            else:
                batch.append((i, key))
        scores = score([(units[key], grid[i]) for i, key in batch])
        for (i, key), val in zip(batch, scores):
            seen[i][key] = (objective(units[key], grid[i]), True) if val is None else (val, False)

    results = []
    for i, params_alpha in enumerate(grid):
        best_val, best_key = -math.inf, None
        for family in families:
            key = (family, finals[i, family])
            val, adaptive = seen[i][key]
            if not adaptive:
                val = objective(units[key], params_alpha)
            if val > best_val:
                best_val, best_key = val, key
        results.append((best_val, units[best_key]) if math.isfinite(best_val) else None)
    return results


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
    rows: tuple
    fitted_slopes: dict
    alpha_star: Optional[float]


def crossover_detect(
    p: FunctionalParams,
    alphas: Sequence[float],
    bump: BumpSpec = BumpSpec(),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> SweepReport:
    """Sweep the grid, fit decay slopes, and locate the numerical crossover.

    alpha_star is the smallest grid alpha whose translated-bump value strictly
    exceeds kappa = 1.05 times the radial search value (both sides are lower
    bounds of their suprema, hence the safety factor and the 'numerical
    crossover' label).  Slopes are least-squares on log-log over the last
    four grid points.  One `radial_max_search` call covers the grid; the
    rows raise OptFailure at the first alpha it marks failed.
    """
    alphas = [float(a) for a in alphas]
    check_sweep(p, alphas)

    radial = radial_max_search(alphas, p, spec)
    rows = []
    base = _paper_base(p, bump, spec)
    for a, found in zip(alphas, radial):
        bump_exact = translated_bump_value(a, p, bump, spec)
        bump_bound = _paper_bound(a, base)
        if found is None:
            raise OptFailure("all radial search starts failed")
        radial_val, radial_prof = found
        for name, v in (("bump_exact", bump_exact), ("radial_max", radial_val)):
            # a subnormal carries fewer than 53 bits and cannot meet rel_tol
            if not sys.float_info.min <= v < math.inf:
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
        rows=tuple(rows),
        fitted_slopes={
            "bump": bump_slope,
            "radial": radial_slope,
            "bump_max_residual": bump_resid,
            "radial_max_residual": radial_resid,
        },
        alpha_star=alpha_star,
    )
