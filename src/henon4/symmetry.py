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

Radial side: a certified lower estimate of the radial supremum by multistart
coordinate ascent over parametric families (boundary-adapted power profiles,
concentrating extremal members, off-origin ring bumps), each candidate
scaled onto the unit energy sphere by its exact energy: every family has a
closed-form ||Delta u||_2^2, so a candidate costs one integral, the
functional.  The bumps and the search families share one table, `_FAMILIES`,
and one normaliser, `_unit`, so the sweep integrates no energy.  At
sigma = 32 pi^2 the concentrating members win at small alpha (up to
alpha = 4..12, growing with m), ring bumps from there to alpha = 16, and
power profiles from alpha = 32 on.  Values decay like
alpha^-5 (boundary-power class), consistent with the alpha^{-9/2} upper
bound for the radial supremum.

Crossover: the smallest grid alpha where the translated-bump value strictly
exceeds kappa = 1.05 times the radial search value; the margin column is the
log-ratio log(bump / (kappa * radial)), increasing past the crossover.
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
    as_index,
)
from .moser import MoserParams, moser_navier, navier_norm_sq_exact
from .profiles import (
    OMEGA_3,
    BoundaryKind,
    FunctionalParams,
    RadialProfile,
    cos2_profile,
    exp_minus_taylor,
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
_SIGMA_MAX = sigma_alpha(0.0) * (1.0 + 1e-12)  # 32 pi^2, the bound of every sigma check


# ---------------------------------------------------------------------------
# profile families: the translated bumps and the radial search candidates
# ---------------------------------------------------------------------------


def _poly_mul(p: list, q: list) -> list:
    """Product of two polynomials given as coefficient lists, lowest first."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p: list, q: list, c: float = 1.0) -> list:
    """p + c q for coefficient lists, lowest first."""
    out = list(p) + [0.0] * (len(q) - len(p))
    for i, b in enumerate(q):
        out[i] += c * b
    return out


def _ring_energy(rho0: float, h: float) -> float:
    """Closed form of ||Delta u||_2^2 for u = ring_profile(rho0, h), on the
    search box of the `ring` family only.

    With phi = exp(-(s/h)^2), s = r - rho0, and u = phi (1 - r^2),

        r u'' + 3 u' = phi P,
        P = r (1 - r^2) (4 s^2/h^4 - 2/h^2) - (3 - 7 r^2) 2 s/h^2 - 8 r,

    a quintic in s, so ||Delta u||_2^2 = OMEGA_3 int_0^1 (r u'' + 3 u')^2 r dr
    = OMEGA_3 int_0^1 r P^2 exp(-2 s^2/h^2) dr.  Put s = t w with
    t = h/sqrt(2): the Gaussian becomes exp(-w^2), 4 s^2/h^4 - 2/h^2 =
    2 (w^2 - 1)/h^2 and 2 s/h^2 = sqrt(2) w/h, and

        ||Delta u||_2^2 = OMEGA_3 t sum_{k=0}^{11} c_k J_k,
        J_k = int_a^b w^k exp(-w^2) dw,  a = -rho0/t,  b = (1 - rho0)/t,

    where c_k are the coefficients of the degree-11 polynomial r P^2 in w
    (r = rho0 + t w).  J_0 = sqrt(pi)/2 (erf b - erf a) adds two terms of
    one sign (a <= 0 < b), J_1 = (exp(-a^2) - exp(-b^2))/2, and integration
    by parts gives the upward recursion

        J_k = (k-1)/2 J_{k-2} + (a^{k-1} exp(-a^2) - b^{k-1} exp(-b^2))/2.

    On the box rho0 in [0, 0.97], h in [0.03, 0.6] the interval reaches
    |w| > 2, and the sum agrees with 40-digit mpmath to 3e-15 relative or
    better (an 8 x 8 grid over the box plus four interior points).  For a
    wide Gaussian (h >> 1) the interval shrinks around 0, the J_k become
    small differences of the boundary terms and the recursion loses digits
    (7e-13 at h = 100), so other parameters are refused rather than given a
    general formula.
    """
    (rho_lo, rho_hi), (h_lo, h_hi) = _FAMILIES["ring"].box
    if not (rho_lo <= rho0 <= rho_hi and h_lo <= h <= h_hi):
        raise DomainError(f"ring energy outside the search box: rho0={rho0!r}, h={h!r}")
    t = h / math.sqrt(2.0)
    r = [rho0, t]
    r2 = _poly_mul(r, r)
    a2, a1 = 2.0 / h**2, math.sqrt(2.0) / h
    poly = _poly_mul(_poly_add(r, _poly_mul(r2, r), -1.0), [-a2, 0.0, a2])
    poly = _poly_add(poly, _poly_mul(_poly_add([3.0], r2, -7.0), [0.0, -a1]))
    poly = _poly_add(poly, r, -8.0)
    coeffs = _poly_mul(r, _poly_mul(poly, poly))

    a, b = -rho0 / t, (1.0 - rho0) / t
    ea, eb = math.exp(-a * a), math.exp(-b * b)
    moments = [0.5 * math.sqrt(math.pi) * (math.erf(b) - math.erf(a)), 0.5 * (ea - eb)]
    pa = pb = 1.0  # a^(k-1) and b^(k-1)
    for k in range(2, len(coeffs)):
        pa *= a
        pb *= b
        moments.append(0.5 * (k - 1) * moments[k - 2] + 0.5 * (pa * ea - pb * eb))
    return OMEGA_3 * t * sum(c * j for c, j in zip(coeffs, moments))


class _Family(NamedTuple):
    """Profile and closed-form ||Delta u||_2^2 as functions of the parameters,
    their search box (one (lo, hi) each) and the search's base starts."""

    profile: Callable
    energy: Callable
    box: tuple = ()
    starts: tuple = ()


# Energies: poly4 = (1 - r^2)^2 has Delta u = 24 r^2 - 16, hence 16 pi^2;
# cos2 = cos^2(pi r / 2) gives pi^4 (pi^2 + 9) / 16; Delta (1 - r^q) =
# -q (q+2) r^(q-2) gives pow OMEGA_3 q (q+2)^2 / 2; moser is
# `navier_norm_sq_exact` of epsilon = 10^x; ring is `_ring_energy`.  The
# starts are visited in table order, and the jitter draws among them.
_FAMILIES = {
    "poly4": _Family(lambda: poly_profile(2), lambda: 16.0 * math.pi**2),
    "cos2": _Family(cos2_profile, lambda: math.pi**4 * (math.pi**2 + 9.0) / 16.0),
    "pow": _Family(
        power_profile,
        lambda q: OMEGA_3 * q * (q + 2.0) ** 2 / 2.0,
        ((0.5, 12.0),), ((1.2,), (2.0,), (3.5,)),
    ),
    "moser": _Family(
        lambda x: moser_navier(MoserParams(10.0**x, BoundaryKind.NAVIER)),
        lambda x: navier_norm_sq_exact(10.0**x),
        ((-12.0, -0.95),), ((-2.0,), (-4.0,)),  # x = log10 epsilon
    ),
    "ring": _Family(
        ring_profile,
        _ring_energy,
        ((0.0, 0.97), (0.03, 0.6)), ((0.3, 0.3), (0.7, 0.15), (0.9, 0.08)),
    ),
}


def _unit(name: str, params: Sequence[float] = ()) -> RadialProfile:
    """The family member at `params` on the unit energy sphere."""
    family = _FAMILIES[name]
    return scale_to_unit(family.profile(*params), family.energy(*params))


@dataclass(frozen=True)
class BumpSpec:
    """Named positive smooth bump of unit energy: a `_FAMILIES` entry without a box."""

    kind: str = "poly4"

    def __post_init__(self) -> None:
        if self.kind not in _FAMILIES or _FAMILIES[self.kind].box:
            raise DomainError(f"unknown bump kind {self.kind!r}")


def bump_profile(bump: BumpSpec) -> RadialProfile:
    return _unit(bump.kind)


def _check_bump_params(alpha: float, p: FunctionalParams) -> None:
    if not (math.isfinite(alpha) and alpha >= 4.0):
        raise PreconditionError("translated bump requires finite alpha >= 4")
    if p.m is None:
        raise PreconditionError("the comparison concerns truncated functionals (m present)")
    if p.sigma > _SIGMA_MAX:
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
    if p.sigma > _SIGMA_MAX:
        raise DomainError("sigma must stay at or below 32 pi^2")


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
    _check_bump_params(alpha, p)
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
    _check_bump_params(alpha, p)
    base = weighted_functional(bump_profile(bump), FunctionalParams(0.0, p.sigma, p.m), spec)
    return math.exp(alpha * math.log1p(-2.0 / alpha)) * alpha**-4.0 * base  # no rounded base


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
    Each distinct candidate is evaluated once per call, and its energy
    ||Delta u||_2^2 comes from the family's closed form (`_unit`), so the
    functional is the only integral per candidate.  Nothing is kept
    between calls.  Deterministic for a fixed opts.seed.  Returns
    (value, profile).
    """
    if p.sigma > _SIGMA_MAX:
        raise PreconditionError("sigma must stay at or below 32 pi^2")
    if p.m is None or p.m < 1:
        raise PreconditionError("radial search targets truncated functionals, m >= 1")
    params_alpha = FunctionalParams(alpha, p.sigma, p.m)

    def objective(family: str, params) -> float:
        try:
            val = weighted_functional(_unit(family, params), params_alpha, spec)
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
    base = [(name, start) for name, family in _FAMILIES.items() for start in family.starts]
    starts = list(base)
    for _ in range(_JITTER_STARTS):
        family, params = base[int(rng.integers(len(base)))]
        jittered = [
            float(np.clip(x * rng.uniform(0.8, 1.25), lo, hi))
            for x, (lo, hi) in zip(params, _FAMILIES[family].box)
        ]
        starts.append((family, jittered))

    best_val = -math.inf
    best_family = None
    best_params = None
    for family, params in starts:
        params = list(params)
        val = lookup(family, params)
        for _ in range(_SWEEPS):
            for dim, (lo, hi) in enumerate(_FAMILIES[family].box):

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
    return best_val, _unit(best_family, best_params)


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
