"""Radial functions on the unit ball of R^4 and the weighted functionals.

A profile is a closed-form triple (value, d1, d2) on (0, 1]; sampled
representations appear only in the rearrangement machinery.  All callables
are vectorized over numpy arrays.

Conventions used throughout:

    OMEGA_3 = 2*pi^2          area of S^3; vol(B) = OMEGA_3 / 4
    energy(u) = integral_B |Delta u|^2
              = OMEGA_3 * int_0^1 (u'' + 3 u'/r)^2 r^3 dr,
    evaluated in the absorbed form (r^{3/2} u'' + 3 r^{1/2} u')^2 so the
    0/0 of u'/r at the origin never materializes.

The sharp exponential threshold on the unit energy sphere is

    sigma_alpha = 32 pi^2 (1 + alpha/4) = (4 + alpha) * 4 * OMEGA_3,

and the truncated weighted functional is

    F_m(u) = OMEGA_3 * int_0^1 r^{alpha+3} g(u(r)) dr,
    g(s)   = exp(sigma s^2) - sum_{k=0}^{m} (sigma s^2)^k / k!   (m given)
           = exp(sigma s^2)                                      (m absent).

F_m is integrated in one of two variables.  With s = -log r and
tau = (alpha+4) s (the logarithmic substitution of `logtransform` with
gamma = alpha+4),

    F_m(u) = OMEGA_3/(alpha+4) * int_0^inf e^{-tau} g(u(e^{-tau/(alpha+4)})) dtau,

whose weight puts the boundary layer at r = 1, of width 1/(alpha+4), at
tau ~ 1 for every alpha; `RadialProfile.value_s` evaluates u(e^{-s}) in closed
form, exact near s = 0.  Tau is used when the profile's energy E is known,
sigma < sigma_alpha and x = sigma E / sigma_alpha <= 1/2: a u with u(1) = 0 obeys
|u| <= sqrt(s E) / (2 sqrt(OMEGA_3)), so sigma u^2 <= x tau and the tail of
the tau integral past T is at most e^{-T(1-x)}/(1-x).  Every other call is
integrated in r on [0, 1] (`weighted_functional`).  To rank many profiles,
`functional_scorer` evaluates the tau integral's first GK15 round as a fixed
rule, on a whole batch of (profile, params) pairs with one series call per m,
and leaves to the adaptive integral what that round cannot vouch for.

Every constructor with a closed-form energy sets `RadialProfile.energy`;
`sinpoly_profile` and the sampled-data profiles of `rearrangement` leave it
None, so F_m of them is integrated in r.

Each integral is written once, as the `*_batch` form that `integrate_batch`
runs in lockstep; each scalar form is its batch of one, which
`integrate_batch` runs as one call of `integrate`.  Every batch form applies
each per-problem parameter (profile, exponent, sigma, m, weight) in
`_by_key`, once per distinct value over the joined abscissae of the problems
that share it, so a round sums F_m's series in one `exp_minus_taylor` call
per m, and each problem gets the bits of its own call.

`series_upper_bound(p)` bounds F_m on the unit energy sphere ||Delta u||_2 = 1.
The named corpus is one table from each of its 13 names to its constructor.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, ThresholdError, as_index
from .quadrature import DEFAULT_SPEC, QuadratureSpec, gk15_rule, integrate_batch

__all__ = [
    "OMEGA_3",
    "BoundaryKind",
    "RadialProfile",
    "FunctionalParams",
    "sigma_alpha",
    "laplacian_l2_sq",
    "laplacian_l2_sq_batch",
    "weighted_functional",
    "weighted_functional_batch",
    "functional_scorer",
    "weighted_lp_norm_p",
    "weighted_lp_norm_p_batch",
    "embedding_bound",
    "series_upper_bound",
    "pointwise_log_bound_margin",
    "exp_minus_taylor",
    "scale_to_unit",
    "unit_energy",
    "poly_profile",
    "power_profile",
    "ring_profile",
    "cos2_profile",
    "sinpoly_profile",
    "corpus_names",
    "corpus_profile",
]

OMEGA_3 = 2.0 * math.pi**2


class BoundaryKind(Enum):
    NAVIER = "navier"  # u(1) = 0
    DIRICHLET = "dirichlet"  # u(1) = 0 and u'(1) = 0


@dataclass(frozen=True)
class RadialProfile:
    """Closed-form radial function with two derivatives on (0, 1].

    `value_s(s)` is u(e^-s), exact near s = 0 where the constructors give a
    closed form and `value(exp(-s))` otherwise.  `energy` is the
    ||Delta u||_2^2 the profile is known to have, or None: each constructor
    with a closed form sets it, `scale_to_unit` sets it to 1 and `scaled(c)`
    multiplies a known one by c^2.  `weighted_functional` takes the tau
    variable only for a profile whose energy is known.
    """

    value: Callable
    d1: Callable
    d2: Callable
    boundary: BoundaryKind
    description: str
    breakpoints: tuple = ()
    value_s: Optional[Callable] = None
    energy: Optional[float] = None

    def __post_init__(self) -> None:
        if self.value_s is None:
            value = self.value
            object.__setattr__(self, "value_s", lambda s: value(np.exp(-np.asarray(s))))

    def scaled(self, c: float) -> "RadialProfile":
        c = float(c)
        return _scaled(self, c, None if self.energy is None else c * c * self.energy)


def _scaled(u: RadialProfile, c: float, energy: Optional[float]) -> RadialProfile:
    """c u, whose energy is `energy`."""
    return RadialProfile(
        value=lambda r: c * u.value(r),
        d1=lambda r: c * u.d1(r),
        d2=lambda r: c * u.d2(r),
        boundary=u.boundary,
        description=f"{c:.6g}*({u.description})",
        breakpoints=u.breakpoints,
        value_s=lambda s: c * u.value_s(s),
        energy=energy,
    )


def _check_alpha(alpha: float) -> None:
    """The package's one rule for a weight exponent alpha."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise DomainError("alpha must be finite and >= 0")


@dataclass(frozen=True)
class FunctionalParams:
    """Weight exponent, exponential coefficient, optional truncation order."""

    alpha: float
    sigma: float
    m: Optional[int] = None

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError("sigma must be finite and > 0")
        if self.m is not None and as_index(self.m, "m") < 0:
            raise DomainError("m must be a natural number when present")


def sigma_alpha(alpha: float) -> float:
    """The sharp weighted threshold 32 pi^2 (1 + alpha/4)."""
    return 32.0 * math.pi**2 * (1.0 + alpha / 4.0)


# Largest m for which (m+1)^(m+1) and (m+1)! are finite doubles, so that the
# first remainder term z^(m+1) / (m+1)! can be formed directly for z < m+1.
_POW_FORM_MAX_M = 142
_SERIES_STOP = 2.0**-56


def exp_minus_taylor(z, m: Optional[int]):
    """exp(z) minus its Taylor sum through order m, for z >= 0, vectorized.

    For z >= m+1 the direct subtraction exp(z) - sum_{k<=m} z^k/k! is used:
    there the subtracted sum is at most about half of exp(z) (the Poisson
    median is near z), so at most about one bit cancels.  For z < m+1 the
    remainder

        sum_{k>m} z^k/k! = z^(m+1)/(m+1)! * sum_{j>=0} z^j (m+1)!/(m+1+j)!

    is summed instead, since its term ratios z/(m+1+j) are below 1.  The
    number of terms J is fixed once per call, with scalar arithmetic, from the
    largest z of that branch: the first j at which the bound
    z_max^j (m+1)!/(m+1+j)! on the term relative to the first, times the
    geometric factor 1/(1 - z_max/(m+2+j)) that covers all later terms, falls
    below 2^-56.  The dropped terms together then lie below half an ulp of the
    partial sum, and so does each of them: adding them would change no bit.
    For the same reason, when m <= 142 the result for z < 0.5 equals, bit for
    bit, the sum of a fixed 40 terms: both add the same terms in the same
    order up to the shorter count, and the terms beyond it change nothing.
    For m > 142 the first term is formed as the running product
    prod_{k<=m+1} z/k, because z^(m+1) or (m+1)! would overflow a double; a
    value that still overflows is inf or nan, which the quadrature drivers
    report as NonFinite.
    """
    z = np.asarray(z, dtype=float)
    if m is None:
        return np.exp(z)
    m = int(m)
    out = np.empty_like(z)
    series = z < m + 1

    zb = z[~series]
    if zb.size:
        term = np.ones_like(zb)
        total = np.ones_like(zb)
        for k in range(1, m + 1):
            term = term * zb / k
            total += term
        out[~series] = np.exp(zb) - total

    zs = z[series]
    if zs.size:
        z_max = float(zs.max())
        if m <= _POW_FORM_MAX_M:
            term = zs ** (m + 1) / math.factorial(m + 1)
        else:
            term = np.ones_like(zs)
            for k in range(1, m + 2):
                term = term * zs / k
        acc = term.copy()
        # bound: the next term over the first; the terms after it shrink by
        # at least z_max/(k+1) each, so bound/(1 - z_max/(k+1)) bounds them all
        k, bound = m + 2, z_max / (m + 2)
        while bound >= _SERIES_STOP * (1.0 - z_max / (k + 1)):
            term = term * zs / k
            acc += term
            k += 1
            bound *= z_max / k
        out[series] = acc
    return out


def _by_key(x: np.ndarray, parts: Sequence[tuple], keys: Sequence, fn: Callable) -> np.ndarray:
    """fn(keys[i], x[sl]) for each (i, sl) of `parts`, which tile `x` in order,
    from one call per distinct key on the joined abscissae of its parts: on
    `x` itself when there is one key, on the view when a key has one part.
    `fn` is elementwise with a scalar parameter, so each part gets the bits
    of its own call (quadrature module docstring)."""
    ks = [keys[i] for i, _ in parts]
    if ks.count(ks[0]) == len(ks):
        return fn(ks[0], x)
    if len(set(ks)) == len(ks):  # a key per part: the parts' values in order
        return np.concatenate([fn(k, x[sl]) for k, (_, sl) in zip(ks, parts)])
    groups: dict = {}
    for k, (_, sl) in zip(ks, parts):
        groups.setdefault(k, []).append(sl)
    out = np.empty_like(x)
    for key, sls in groups.items():
        y, start = fn(key, x[sls[0]] if len(sls) == 1 else np.concatenate([x[sl] for sl in sls])), 0
        for sl in sls:
            out[sl] = y[start : start + sl.stop - sl.start]
            start += sl.stop - sl.start
    return out


def _laplacian(key: tuple, r: np.ndarray) -> np.ndarray:
    (d1, d2), sq = key, np.sqrt(r)
    return (r * sq * d2(r) + 3.0 * sq * d1(r)) ** 2


def laplacian_l2_sq(u: RadialProfile, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """integral_B |Delta u|^2 dx for a radial profile: the batch of one."""
    return laplacian_l2_sq_batch([u], spec)[0]


def laplacian_l2_sq_batch(profiles: Sequence[RadialProfile], spec: QuadratureSpec = DEFAULT_SPEC) -> list:
    """`laplacian_l2_sq` of each profile in lockstep (`integrate_batch`),
    bit for bit the loop of `integrate` over the profiles."""
    keys = [(u.d1, u.d2) for u in profiles]
    f = lambda x, parts: _by_key(x, parts, keys, _laplacian)
    intervals = [(0.0, 1.0, u.breakpoints) for u in profiles]
    return [OMEGA_3 * res.value for res in integrate_batch(f, intervals, spec)]


# Deepest level of the ladder in `_weight_partition`; 1 - 2^-53 is the last
# double of 1 - 2^-k below 1.
_WEIGHT_LEVELS_MAX = 53


def _weight_partition(alpha: float, breakpoints: tuple) -> tuple:
    """The seed points of the integrals weighted by r^(alpha+3): the
    profile's breakpoints, the dyadic ladder 1 - 2^-k for k = 1..K with
    K = min(ceil(log2(alpha+4)), 53), and the geometric midpoint
    1 - 2^-(k+1/2) of every ladder interval [1 - 2^-k, 1 - 2^-(k+1)] across
    which the weight grows by more than e^2, (alpha+3) 2^-(k+1) > 2.
    `integrate` sorts and merges them.

    The weight's mass lies in a layer of width about 1/(alpha+4) at r = 1,
    which the ladder reaches in the first GK15 round; bisecting from [0, 1]
    would take about log2(alpha+4) rounds to get there.  Across a ladder
    interval the weight grows by up to e^35, and there the G7/K15 estimate
    reads 1e2..1e3 times the tolerance while the halves are already
    accurate; the midpoints make that first round meet rel_tol.  The rule
    adds no point below 1/2, and none at all for alpha <= 5, where
    (alpha+3)/4 <= 2: those integrals keep the ladder's partition, and
    their values bit for bit.
    """
    levels = min(math.ceil(math.log2(alpha + 4.0)), _WEIGHT_LEVELS_MAX)
    ladder = tuple(1.0 - 0.5**k for k in range(1, levels + 1))
    mids = tuple(
        1.0 - 0.5 ** (k + 0.5)
        for k in range(1, levels)
        if (alpha + 3.0) * 0.5 ** (k + 1) > 2.0
    )
    return tuple(breakpoints) + ladder + mids


# F_m in tau (module docstring): x = sigma E / sigma_alpha at most 1/2, a
# first integral on [0, 200] seeded at geomspace(0.5, 200, 14) and the mapped
# breakpoints, and at most one more integral for the tail.
_TAU_MAX_SHARE = 0.5
_TAU_END = 200.0


def _tau_seeds(lo: float, hi: float) -> tuple:
    return tuple((lo + np.geomspace(0.5, hi - lo, 14)).tolist())


_TAU_FIRST_SEEDS = _tau_seeds(0.0, _TAU_END)


class _Functional(NamedTuple):
    """F_m of one pair (u, p) as the keys that `_by_key` applies: `scale` times
    the integral of `_weight(power)` * g_m(sigma `_value(value)`^2) over
    `first` = (a, b, seeds), plus in tau the tail interval of `_tail`.  `x` is
    sigma E / sigma_alpha in tau and None in r; `breakpoints` are the
    profile's, mapped to tau."""

    value: tuple
    sigma: float
    m: Optional[int]
    power: Optional[float]
    first: tuple
    scale: float
    x: Optional[float] = None
    breakpoints: tuple = ()


def _functional(u: RadialProfile, p: FunctionalParams) -> _Functional:
    """The package's one rule for the variable of F_m: tau when the energy E
    of `u` is known, sigma < sigma_alpha and x = sigma E / sigma_alpha <= 1/2,
    r otherwise."""
    sa = sigma_alpha(p.alpha)
    x = None if u.energy is None or p.sigma >= sa else p.sigma * u.energy / sa
    if x is None or x > _TAU_MAX_SHARE:
        first = (0.0, 1.0, _weight_partition(p.alpha, u.breakpoints))
        return _Functional((u.value, None), p.sigma, p.m, p.alpha + 3.0, first, OMEGA_3)
    gamma = p.alpha + 4.0
    bps = tuple(-gamma * math.log(b) for b in u.breakpoints if 0.0 < b < 1.0)
    first = (0.0, _TAU_END, _TAU_FIRST_SEEDS + bps)
    return _Functional((u.value_s, gamma), p.sigma, p.m, None, first, OMEGA_3 / gamma, x, bps)


def _value(key: tuple, x: np.ndarray) -> np.ndarray:
    """u(r) for key (u.value, None); u(e^(-tau/gamma)) for (u.value_s, gamma), gamma = alpha+4."""
    value, gamma = key
    return value(x) if gamma is None else value(x / gamma)


def _weight(power: Optional[float], x: np.ndarray) -> np.ndarray:
    """x^power (r^(alpha+3), or |u|^pexp), or e^-x (F_m's weight in tau) when `power` is None."""
    return np.exp(-x) if power is None else x**power


def _g_m(fns: Sequence[_Functional]) -> Callable:
    """The batch form (x, parts) -> g_m(sigma s^2) of the problems `fns`: one
    `_by_key` pass each for s, sigma s^2 and g_m (one `exp_minus_taylor` per m)."""
    values, sigmas, ms = [fn.value for fn in fns], [fn.sigma for fn in fns], [fn.m for fn in fns]
    square, series = lambda sigma, s: sigma * s * s, lambda m, z: exp_minus_taylor(z, m)

    def g(x, parts):
        s = _by_key(x, parts, values, _value)
        z = _by_key(s, parts, sigmas, square)
        return _by_key(z, parts, ms, series)

    return g


def _tail(fn: _Functional, value: float, spec: QuadratureSpec) -> Optional[tuple]:
    """The interval [T, T'] that a tau integral of `value` on [0, T] still
    needs, or None: the tail past T' is at most e^(-T'(1-x))/(1-x) (see
    `weighted_functional`), and T' makes that max(abs_tol, rel_tol |value| / 10)."""
    if fn.x is None:
        return None
    tol = max(spec.abs_tol, 0.1 * spec.rel_tol * abs(value))
    keep = 1.0 - fn.x
    if math.exp(-_TAU_END * keep) / keep <= tol:
        return None
    end = -math.log(tol * keep) / keep
    return (_TAU_END, end, _tau_seeds(_TAU_END, end) + fn.breakpoints)


def weighted_functional(
    u: RadialProfile,
    p: FunctionalParams,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """F(u) or F_m(u): the weighted exponential functional of the profile.

    The weight r^(alpha+3) puts the mass of the integral into a layer of
    width about 1/(alpha+4) at r = 1.  Where the tail can be bounded the
    integral is taken in tau = (alpha+4)(-log r),

        F_m(u) = OMEGA_3/(alpha+4) int_0^inf e^-tau g(u(e^(-tau/(alpha+4)))) dtau,

    whose weight e^-tau puts that layer at tau ~ 1 for every alpha: when the
    energy E of `u` is known, sigma < sigma_alpha and
    x = sigma E / sigma_alpha <= 1/2.  Then
    |u(r)| <= sqrt(-E log r) / (2 sqrt(OMEGA_3)), the pointwise bound of
    `pointwise_log_bound_margin`, gives sigma u^2 <= x tau, and g(z) <= e^z
    bounds the tail past T by e^(-T(1-x))/(1-x).  The integral on [0, 200]
    starts from geomspace(0.5, 200, 14) and the profile's breakpoints mapped
    to tau = -(alpha+4) log r_b, which resolve the layer in the first GK15
    round; one more integral runs to the T' at which the tail bound is
    rel_tol/10 of the value, only when the bound at 200 is larger.  Every
    other call (x > 1/2, an unknown energy, sigma >= sigma_alpha) integrates
    in r on [0, 1] from the seed points of `_weight_partition`, which resolve
    the layer in r in the first round.  The seeded intervals count against
    `spec.max_subdivisions`.  It is `weighted_functional_batch` of one pair.
    """
    return weighted_functional_batch([(u, p)], spec)[0]


def functional_scorer(spec: QuadratureSpec = DEFAULT_SPEC) -> Callable:
    """F_m on a fixed rule, for ranking many profiles: a function that
    takes a batch of (profile, params) pairs and gives each pair's F_m, or
    None where the caller must integrate.

    The rule is the first GK15 round of `weighted_functional`'s integral in
    tau (`gk15_rule` on `_functional`'s first interval), with e^-tau in its
    weights, so a score is two dot products with g_m(sigma u^2) at the
    round's abscissae: the K15 value K and the G7 value G.  The score is
    OMEGA_3/(alpha+4) K when `_functional` picks tau, K is a normal float
    (a subnormal or 0 is a layer the round missed), |K - G| <= rel_tol K and
    `_tail` asks for no tail interval; it is None otherwise.  Only the
    mapped breakpoints move the rule, and the function keeps one rule per
    set of them.  A batch evaluates g_m on the joined abscissae of its
    rules in `_g_m`, so every score is bit for bit its batch of one.
    """
    rules: dict = {}

    def rule(fn: _Functional) -> tuple:
        if fn.breakpoints not in rules:
            x, wk, wg = gk15_rule(*fn.first)
            weight = _weight(None, x)
            rules[fn.breakpoints] = (x, weight * wk, weight * wg)
        return rules[fn.breakpoints]

    def score(problems: Sequence[tuple]) -> list:
        fns = [_functional(u, p) for u, p in problems]
        out: list = [None] * len(fns)
        ruled = [(i, fn, rule(fn)) for i, fn in enumerate(fns) if fn.x is not None]
        cuts = [0, *itertools.accumulate(x.size for _, _, (x, _, _) in ruled)]
        parts = list(enumerate(map(slice, cuts, cuts[1:])))
        if ruled:  # sigma u^2 <= x tau <= 100 on [0, 200], so no product overflows
            g = _g_m([fn for _, fn, _ in ruled])(np.concatenate([x for _, _, (x, _, _) in ruled]), parts)
        for (i, fn, (_, wk, wg)), (_, sl) in zip(ruled, parts):
            kronrod, gauss = float(g[sl] @ wk), float(g[sl] @ wg)
            ok = sys.float_info.min <= kronrod < math.inf and abs(kronrod - gauss) <= spec.rel_tol * kronrod
            if ok and not _tail(fn, kronrod, spec):
                out[i] = fn.scale * kronrod
        return out

    return score


def weighted_functional_batch(problems: Sequence[tuple], spec: QuadratureSpec = DEFAULT_SPEC) -> list:
    """`weighted_functional` of each (profile, params) pair in lockstep
    (`integrate_batch`), bit for bit the loop of `integrate` over their
    integrals: one batch of every first integral, in tau or in r, then one
    of the tails that tau needs.  `_by_key` applies the (profile, variable),
    sigma, m and the weight."""
    fns = [_functional(u, p) for u, p in problems]

    def run(index: Sequence[int], intervals: list) -> list:
        own = [fns[i] for i in index]
        g = _g_m(own)
        powers = [fn.power for fn in own]
        f = lambda x, parts: g(x, parts) * _by_key(x, parts, powers, _weight)
        return [res.value for res in integrate_batch(f, intervals, spec)]

    values = run(range(len(fns)), [fn.first for fn in fns])
    tails = {i: tail for i, (fn, value) in enumerate(zip(fns, values)) if (tail := _tail(fn, value, spec))}
    for i, value in zip(tails, run(list(tails), list(tails.values()))):
        values[i] += value
    return [fn.scale * value for fn, value in zip(fns, values)]


def _check_pexp(pexp: float) -> None:
    """The package's one rule for an L^p exponent."""
    if not 1.0 <= pexp < math.inf:
        raise DomainError("pexp must be finite and >= 1")


def weighted_lp_norm_p(
    u: RadialProfile,
    pexp: float,
    alpha: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """integral_B |x|^alpha |u|^p dx (the p-th power of the weighted norm).

    As in `weighted_functional`, the integral starts from the seed points of
    `_weight_partition`.  It is `weighted_lp_norm_p_batch` of one problem.
    """
    return weighted_lp_norm_p_batch([(u, pexp, alpha)], spec)[0]


def weighted_lp_norm_p_batch(problems: Sequence[tuple], spec: QuadratureSpec = DEFAULT_SPEC) -> list:
    """`weighted_lp_norm_p` of each (profile, pexp, alpha) in lockstep
    (`integrate_batch`), bit for bit the loop of `integrate` over the
    problems.  Every pexp and alpha is checked before the first integral."""
    for _, pexp, alpha in problems:
        _check_pexp(pexp)
        _check_alpha(alpha)
    values = [u.value for u, _, _ in problems]
    pexps = [pexp for _, pexp, _ in problems]
    powers = [alpha + 3.0 for _, _, alpha in problems]

    def f(x, parts):
        v = _by_key(x, parts, values, lambda value, r: np.abs(value(r)))
        return _by_key(x, parts, powers, _weight) * _by_key(v, parts, pexps, _weight)

    intervals = [(0.0, 1.0, _weight_partition(alpha, u.breakpoints)) for u, _, alpha in problems]
    return [OMEGA_3 * res.value for res in integrate_batch(f, intervals, spec)]


def embedding_bound(pexp: float, alpha: float, lap_norm: float) -> float:
    """Closed-form majorant of the weighted L^p norm on the energy sphere.

    With eps_emb = 4/(4+alpha) (the substitution exponent r = rho^eps_emb):

        integral_B |x|^alpha |u|^p
            <= (eps_emb/4)^{1+p/2} Gamma(1+p/2) OMEGA_3^{1-p/2} 2^{-p}
               * ||Delta u||_2^p.
    """
    _check_pexp(pexp)
    if not lap_norm >= 0.0:
        raise DomainError("lap_norm must be >= 0")
    _check_alpha(alpha)
    eps_emb = 4.0 / (4.0 + alpha)
    return (
        (eps_emb / 4.0) ** (1.0 + pexp / 2.0)
        * math.gamma(1.0 + pexp / 2.0)
        * OMEGA_3 ** (1.0 - pexp / 2.0)
        / 2.0**pexp
        * lap_norm**pexp
    )


def series_upper_bound(p: FunctionalParams) -> float:
    """Geometric sum of the termwise embedding bounds for F (or F_m) on the
    unit energy sphere ||Delta u||_2 = 1.

    Valid below threshold.  With x = sigma / sigma_alpha:
        F   <= OMEGA_3 / ((4+alpha) (1-x))
        F_m <= OMEGA_3 / (4+alpha) * x^{m+1} / (1-x)
    (the truncated tail starts at k = m+1 since F_m subtracts through k = m).
    """
    sa = sigma_alpha(p.alpha)
    if p.sigma >= sa:
        raise ThresholdError(f"sigma = {p.sigma:.6g} >= sigma_alpha = {sa:.6g}")
    x = p.sigma / sa
    base = OMEGA_3 / (4.0 + p.alpha)
    if p.m is None:
        return base / (1.0 - x)
    return base * x ** (p.m + 1) / (1.0 - x)


_LOG_BOUND_NODES = 512


def pointwise_log_bound_margin(u: RadialProfile, energy: float) -> float:
    """Worst ratio of |u(r)| to its logarithmic pointwise bound, given the
    energy ||Delta u||_2^2 of `u`.

    Evaluates sup over 512 log-spaced nodes of
        |u(r)| * 2 sqrt(OMEGA_3) / (sqrt(-log r) * ||Delta u||_2);
    the radial pointwise estimate asserts this never exceeds 1.
    Returns 0.0 for the zero profile (energy 0) by convention.
    """
    if energy <= 0.0:
        return 0.0
    r = np.geomspace(1e-6, 1.0 - 1e-6, _LOG_BOUND_NODES)
    vals = np.abs(np.asarray(u.value(r)))
    bound = np.sqrt(-np.log(r)) * math.sqrt(energy) / (2.0 * math.sqrt(OMEGA_3))
    return float(np.max(vals / bound))


def scale_to_unit(u: RadialProfile, energy: float) -> RadialProfile:
    """Scale a profile of the given energy ||Delta u||_2^2 onto the unit
    energy sphere ||Delta u||_2 = 1; the result's `energy` is 1.

    The package's one normalisation rule: an energy that is not a finite
    positive number, None included, raises DomainError.  A profile of
    closed-form energy is normalised as `scale_to_unit(u, u.energy)` (the
    symmetry sweep, `moser.blowup_scan`); the identity suite passes the
    energies it integrated, and `unit_energy` integrates it first.
    """
    if not (isinstance(energy, numbers.Real) and energy > 0.0 and math.isfinite(energy)):
        raise DomainError(f"cannot normalize {u.description} of energy {energy!r}")
    return _scaled(u, 1.0 / math.sqrt(energy), 1.0)


def unit_energy(u: RadialProfile, spec: QuadratureSpec = DEFAULT_SPEC) -> RadialProfile:
    """Scale a profile onto the unit energy sphere ||Delta u||_2 = 1,
    integrating its energy with `laplacian_l2_sq` (see `scale_to_unit`)."""
    return scale_to_unit(u, laplacian_l2_sq(u, spec))


# ---------------------------------------------------------------------------
# closed-form profile constructors
# ---------------------------------------------------------------------------


def poly_profile(j: int) -> RadialProfile:
    """u = (1 - r^2)^j for an integer j; Navier for j = 1, Dirichlet for
    j >= 2.  Its energy is 16 OMEGA_3 for j = 1 (Delta u = -8) and
    12 j (j-1) OMEGA_3 / ((2j-1)(2j-3)) for j >= 2, whose rational factor is
    exact at j = 2."""
    if as_index(j, "j") < 1:
        raise DomainError("j >= 1 required")
    bc = BoundaryKind.NAVIER if j == 1 else BoundaryKind.DIRICHLET

    def value(r):
        return (1.0 - np.asarray(r) ** 2) ** j

    def d1(r):
        rr = np.asarray(r)
        return -2.0 * j * rr * (1.0 - rr**2) ** (j - 1)

    def d2(r):
        rr = np.asarray(r)
        out = -2.0 * j * (1.0 - rr**2) ** (j - 1)
        if j >= 2:
            out = out + 4.0 * j * (j - 1) * rr**2 * (1.0 - rr**2) ** (j - 2)
        return out

    def value_s(s):
        return (-np.expm1(-2.0 * np.asarray(s))) ** j

    energy = 16.0 * OMEGA_3 if j == 1 else 12.0 * j * (j - 1) / ((2 * j - 1) * (2 * j - 3)) * OMEGA_3
    return RadialProfile(value, d1, d2, bc, f"poly{2*j}", value_s=value_s, energy=energy)


def power_profile(q: float) -> RadialProfile:
    """u = 1 - r^q (Navier); q = 2 is the boundary-adapted parabola.
    Delta u = -q (q+2) r^(q-2) gives the energy OMEGA_3 q (q+2)^2 / 2."""
    if not q > 0.0:
        raise DomainError("q > 0 required")

    def value(r):
        return 1.0 - np.asarray(r) ** q

    def d1(r):
        return -q * np.asarray(r) ** (q - 1.0)

    def d2(r):
        return -q * (q - 1.0) * np.asarray(r) ** (q - 2.0)

    def value_s(s):
        return -np.expm1(-q * np.asarray(s))

    energy = OMEGA_3 * q * (q + 2.0) ** 2 / 2.0
    return RadialProfile(value, d1, d2, BoundaryKind.NAVIER, f"pow:{q:.6g}", value_s=value_s, energy=energy)


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
    domain rho0 <= 0.999, h in [0.005, 2] only.

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

    On the domain rho0 in [0, 0.999], h in [0.005, 2] the sum agrees with
    40-digit mpmath to 1.3e-15 relative or better (rho0 in {0, 0.5, 0.97,
    0.999} by h in {0.005, 0.01, 0.6, 1, 2}).  For a wide Gaussian (h >> 1)
    the interval shrinks around 0, the J_k become small differences of the
    boundary terms and the recursion loses digits (1.1e-14 at h = 5, 7e-13
    at h = 100), so `ring_profile` leaves the energy of other parameters
    unknown rather than give a general formula.
    """
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


def ring_profile(rho0: float, h: float) -> RadialProfile:
    """Annular bump exp(-((r-rho0)/h)^2) * (1 - r^2); concentrates off-origin.
    Its energy is `_ring_energy` on that function's domain, None outside."""
    if not (0.0 <= rho0 < 1.0 and h > 0.0):
        raise DomainError("need 0 <= rho0 < 1 and h > 0")

    def phi(rr):
        return np.exp(-(((rr - rho0) / h) ** 2))

    def value(r):
        rr = np.asarray(r)
        return phi(rr) * (1.0 - rr**2)

    def d1(r):
        rr = np.asarray(r)
        p = phi(rr)
        return p * (-2.0 * (rr - rho0) / h**2) * (1.0 - rr**2) + p * (-2.0 * rr)

    def d2(r):
        rr = np.asarray(r)
        p = phi(rr)
        z = (rr - rho0) / h
        pp = p * (-2.0 * z / h)
        ppp = p * (4.0 * z**2 - 2.0) / h**2
        return ppp * (1.0 - rr**2) + 2.0 * pp * (-2.0 * rr) + p * (-2.0)

    def value_s(s):
        ss = np.asarray(s)
        return phi(np.exp(-ss)) * -np.expm1(-2.0 * ss)

    energy = _ring_energy(rho0, h) if rho0 <= 0.999 and 0.005 <= h <= 2.0 else None
    return RadialProfile(
        value, d1, d2, BoundaryKind.NAVIER, f"ring:{rho0:.6g}:{h:.6g}", value_s=value_s, energy=energy
    )


def cos2_profile() -> RadialProfile:
    """u = cos^2(pi r / 2) = (1 + cos(pi r))/2 (Dirichlet), of energy
    pi^4 (pi^2 + 9) / 16."""

    def value(r):
        return 0.5 * (1.0 + np.cos(math.pi * np.asarray(r)))

    def d1(r):
        return -0.5 * math.pi * np.sin(math.pi * np.asarray(r))

    def d2(r):
        return -0.5 * math.pi**2 * np.cos(math.pi * np.asarray(r))

    def value_s(s):
        # cos^2(pi r / 2) = sin^2(pi (1 - r) / 2)
        return np.sin(0.5 * math.pi * -np.expm1(-np.asarray(s))) ** 2

    energy = math.pi**4 * (math.pi**2 + 9.0) / 16.0
    return RadialProfile(value, d1, d2, BoundaryKind.DIRICHLET, "cos2", value_s=value_s, energy=energy)


def sinpoly_profile() -> RadialProfile:
    """u = sin(pi r^2)(1 - r); sign-changing Laplacian, Dirichlet boundary."""

    def value(r):
        rr = np.asarray(r)
        return np.sin(math.pi * rr**2) * (1.0 - rr)

    def d1(r):
        rr = np.asarray(r)
        return 2.0 * math.pi * rr * np.cos(math.pi * rr**2) * (1.0 - rr) - np.sin(
            math.pi * rr**2
        )

    def d2(r):
        rr = np.asarray(r)
        s = np.sin(math.pi * rr**2)
        c = np.cos(math.pi * rr**2)
        return (
            2.0 * math.pi * c * (1.0 - rr)
            - 4.0 * math.pi**2 * rr**2 * s * (1.0 - rr)
            - 4.0 * math.pi * rr * c
        )

    def value_s(s):
        # sin(pi r^2) = sin(pi (1 - r^2)): the smaller of the two arguments
        # is exact, 1 - r^2 near r = 1 and r^2 near r = 0
        ss = np.asarray(s)
        w = -np.expm1(-2.0 * ss)
        return np.sin(math.pi * np.where(w <= 0.5, w, np.exp(-2.0 * ss))) * -np.expm1(-ss)

    return RadialProfile(value, d1, d2, BoundaryKind.DIRICHLET, "sinpoly", value_s=value_s)


def _moser(eps: float, bc: BoundaryKind) -> RadialProfile:
    from .moser import MoserParams, moser_dirichlet, moser_navier

    mp = MoserParams(eps, bc)
    return moser_navier(mp) if bc is BoundaryKind.NAVIER else moser_dirichlet(mp)


# each corpus name, in its fixed order, and the constructor it names
_CORPUS = {
    "poly2": lambda: poly_profile(1),
    "poly4": lambda: poly_profile(2),
    "poly6": lambda: poly_profile(3),
    "pow:3": lambda: power_profile(3.0),
    "pow:6": lambda: power_profile(6.0),
    "cos2": cos2_profile,
    "sinpoly": sinpoly_profile,
    "ring:0.55:0.25": lambda: ring_profile(0.55, 0.25),
    "ring:0.8:0.12": lambda: ring_profile(0.8, 0.12),
    "moser:1e-2:navier": lambda: _moser(1e-2, BoundaryKind.NAVIER),
    "moser:1e-4:navier": lambda: _moser(1e-4, BoundaryKind.NAVIER),
    "moser:1e-4:dirichlet": lambda: _moser(1e-4, BoundaryKind.DIRICHLET),
    "moser:1e-6:dirichlet": lambda: _moser(1e-6, BoundaryKind.DIRICHLET),
}


def corpus_names() -> tuple:
    """Names of the built-in test corpus, addressable from the CLI."""
    return tuple(_CORPUS)


def corpus_profile(name: str) -> RadialProfile:
    """Build the corpus profile `name` (one of `corpus_names`)."""
    if name not in _CORPUS:
        raise DomainError(f"unknown corpus profile {name!r}")
    return _CORPUS[name]()
