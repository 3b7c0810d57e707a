"""Concentrating extremal sequences and threshold-sharpness scans.

The Navier-boundary member u_eps rises logarithmically from the boundary and
plateaus on the ball r <= eps^{1/4}; writing L = |log eps|,

    u_eps(r) = [ L/4 + (sqrt(eps) - r^2) / (2 sqrt(eps)) ] / sqrt(OMEGA_3 L)
                                                for r <= eps^{1/4},
    u_eps(r) = -log(r) / sqrt(OMEGA_3 L)        for eps^{1/4} < r <= 1.

The inner constant L/4 (rather than L/2) is forced by C^0/C^1 matching at
r = eps^{1/4}; both pieces then share the derivative -eps^{-1/4}/sqrt(OMEGA_3 L)
at the seam, and the energy comes out exactly

    ||Delta u_eps||_2^2 = 1 + 4/L.

The Dirichlet member u_{eps,0} equals u_eps up to r = 1 - eta, with
eta = 1 / log L, and is capped by the unique C^1 cubic in s = |log r| that
vanishes to second order at r = 1: with a = |log(1 - eta)|,

    u_{eps,0}(r) = (2 a s^2 - s^3) / (a^2 sqrt(OMEGA_3 L)),  1 - eta < r <= 1.

(The leading coefficient must carry |log(1-eta)|, not log(1-eta), for the cap
to match the positive outer branch; the derivative formulas below follow from
that reading.)  Its energy is exact: with Delta u = u'' + 3u'/r and
OMEGA_3 c^2 = 1/L, c = 1/sqrt(OMEGA_3 L), the plateau gives 4/L and the log
branch (Delta u = -2c/r^2) (4/L)(L/4 - a).  On the cap, in s = -log r with
u = f(s), Delta u = (f'' - 2f')/r^2 and |Delta u|^2 r^3 dr = (f'' - 2f')^2 ds,
with f'' - 2f' = c (4a - (6 + 8a) s + 6 s^2)/a^2; this polynomial integral
over s in [0, a] gives (4/a - 2 + 68a/15)/L, so

    ||Delta u_{eps,0}||_2^2 = 1 + (2 + 4/a + 8a/15)/L.

`blowup_scan` normalizes a member onto the unit energy sphere, evaluates the
weighted functional at sigma = beta * sigma_alpha for each eps, and classifies
the scan.  The asymptotic growth of a diverging scan is
exp((alpha+4)/4 * (beta-1) * |log eps|), i.e. a factor
exp((alpha+4)(beta-1) ln(10)/4) per decade of eps -- at alpha = 0, beta = 1.2
that is only ~1.585, so the divergence gate requires >= 15% growth per decade
(well above the < 10%-over-three-decades flatness of a bounded scan) rather
than a factor of 2.  Below the threshold (beta < 1) a scan whose values never
rise over the final three decades is also bounded: u_eps tends weakly to 0, so
F_m (whose value at 0 is 0) may keep decaying instead of levelling off.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NonFinite
from .profiles import (
    OMEGA_3,
    BoundaryKind,
    FunctionalParams,
    RadialProfile,
    _check_alpha,
    scale_to_unit,
    sigma_alpha,
    weighted_functional_batch,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec

__all__ = [
    "MoserParams",
    "ThresholdExperiment",
    "moser_navier",
    "moser_dirichlet",
    "blowup_scan",
    "check_scan",
    "DIVERGING_GROWTH_PER_DECADE",
    "BOUNDED_VARIATION",
]

# Declared verdict thresholds for finite scans.
DIVERGING_GROWTH_PER_DECADE = 1.15
BOUNDED_VARIATION = 0.10

_EPS_MAX = math.exp(-2.0)


@dataclass(frozen=True)
class MoserParams:
    epsilon: float
    bc: BoundaryKind

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < _EPS_MAX:
            raise DomainError(f"epsilon must lie in (0, e^-2), got {self.epsilon!r}")
        if self.bc is BoundaryKind.DIRICHLET and self.eta() >= 0.5:
            raise DomainError(
                "Dirichlet member needs 1/log|log eps| < 1/2 "
                f"(epsilon = {self.epsilon!r} too large)"
            )

    def log_eps(self) -> float:
        return -math.log(self.epsilon)

    def eta(self) -> float:
        return 1.0 / math.log(self.log_eps())


def moser_navier(mp: MoserParams) -> RadialProfile:
    """The Navier-boundary concentrating profile for the given epsilon, of
    energy 1 + 4/|log eps|."""
    if mp.bc is not BoundaryKind.NAVIER:
        raise DomainError("moser_navier requires bc = NAVIER")
    eps = mp.epsilon
    L = mp.log_eps()
    seam = eps**0.25
    sqrt_eps = math.sqrt(eps)
    c = 1.0 / math.sqrt(OMEGA_3 * L)

    def value(r):
        rr = np.asarray(r, dtype=float)
        inner = c * (L / 4.0 + (sqrt_eps - rr**2) / (2.0 * sqrt_eps))
        outer = c * (-np.log(np.maximum(rr, 1e-150)))
        return np.where(rr <= seam, inner, outer)

    def d1(r):
        rr = np.asarray(r, dtype=float)
        inner = -c * rr / sqrt_eps
        outer = -c / np.maximum(rr, 1e-150)
        return np.where(rr <= seam, inner, outer)

    def d2(r):
        rr = np.asarray(r, dtype=float)
        inner = np.full_like(rr, -c / sqrt_eps)
        outer = c / np.maximum(rr, 1e-150) ** 2
        return np.where(rr <= seam, inner, outer)

    s_seam = -math.log(seam)

    def value_s(s):
        # u(e^-s): the outer branch is c s, exact near s = 0
        ss = np.asarray(s, dtype=float)
        inner = c * (L / 4.0 + (sqrt_eps - np.exp(-2.0 * ss)) / (2.0 * sqrt_eps))
        return np.where(ss >= s_seam, inner, c * ss)

    return RadialProfile(
        value,
        d1,
        d2,
        BoundaryKind.NAVIER,
        f"moser:{eps:g}:navier",
        breakpoints=(seam,),
        value_s=value_s,
        energy=1.0 + 4.0 / L,
    )


def moser_dirichlet(mp: MoserParams) -> RadialProfile:
    """The Dirichlet-boundary member: u_eps capped by a C^1 cubic near r = 1,
    of energy 1 + (2 + 4/a + 8a/15)/|log eps| (module docstring)."""
    if mp.bc is not BoundaryKind.DIRICHLET:
        raise DomainError("moser_dirichlet requires bc = DIRICHLET")
    eps = mp.epsilon
    eta = mp.eta()
    u = moser_navier(MoserParams(eps, BoundaryKind.NAVIER))
    # the plateau ends before the cap starts: MoserParams keeps eta < 1/2, so
    # |log eps| > e^2 and seam_in = eps^{1/4} < e^{-e^2/4} ~ 0.158 < 1/2 < seam_out
    seam_in = u.breakpoints[0]
    seam_out = 1.0 - eta
    a =-math.log1p(-eta)  # |log(1 - eta)|
    c = 1.0 / math.sqrt(OMEGA_3 * mp.log_eps())

    def capped(below, cap):
        # u_eps's closed form up to 1 - eta, the cubic cap in s = |log r| above
        def piece(r):
            rr = np.asarray(r, dtype=float)
            rsafe = np.maximum(rr, 1e-150)
            return np.where(rr <= seam_out, below(rr), cap(-np.log(rsafe), rsafe))

        return piece

    def cap_s(s):
        return c * (2.0 * a * s**2 - s**3) / a**2

    def value_s(s):
        ss = np.asarray(s, dtype=float)
        return np.where(ss >= a, u.value_s(ss), cap_s(ss))

    return RadialProfile(
        capped(u.value, lambda s, r: cap_s(s)),
        capped(u.d1, lambda s, r: c * (3.0 * s**2 - 4.0 * a * s) / (r * a**2)),
        capped(
            u.d2,
            lambda s, r: c * (4.0 * a - 6.0 * s + 4.0 * a * s - 3.0 * s**2) / (r**2 * a**2),
        ),
        BoundaryKind.DIRICHLET,
        f"moser:{eps:g}:dirichlet",
        breakpoints=(seam_in, seam_out),
        value_s=value_s,
        energy=1.0 + (2.0 + 4.0 / a + 8.0 * a / 15.0) / mp.log_eps(),
    )


@dataclass(frozen=True)
class ThresholdExperiment:
    norm_sqs: tuple
    values: tuple
    log_values: tuple
    lower_bound_exponents: tuple
    verdict: str  # "Diverging" | "Bounded" | "Inconclusive"


def _classify(epsilons: Sequence[float], values: Sequence[float], beta: float) -> str:
    n = len(values)
    decades = [math.log10(epsilons[k - 1] / epsilons[k]) for k in range(1, n)]
    # Divergence gate: strict growth at >= 15% per decade on every step beyond
    # the third scan entry.
    tail_pairs = [k for k in range(3, n)]
    if tail_pairs:
        diverging = True
        for k in tail_pairs:
            if values[k] <= values[k - 1]:
                diverging = False
                break
            g = (values[k] / values[k - 1]) ** (1.0 / decades[k - 1])
            if g < DIVERGING_GROWTH_PER_DECADE:
                diverging = False
                break
        if diverging:
            return "Diverging"
    # Boundedness gate over the final three decades of eps: < 10% spread, or,
    # below the threshold (beta < 1), a tail that never increases.
    eps_min = epsilons[-1]
    window = [values[k] for k in range(n) if epsilons[k] <= eps_min * 1e3]
    if len(window) >= 2 and (
        max(window) < (1.0 + BOUNDED_VARIATION) * min(window)
        or (beta < 1.0 and all(b <= a for a, b in zip(window, window[1:])))
    ):
        return "Bounded"
    return "Inconclusive"


def check_scan(alpha: float, beta: float, epsilons: Sequence, m: Optional[int], bc: BoundaryKind) -> tuple:
    """The rules of a scan, each a DomainError raised before any integral: beta
    finite and > 0, beta * sigma_alpha(alpha) finite, epsilons non-empty and
    strictly decreasing.  Returns `blowup_scan`'s params, epsilons and members."""
    if not (math.isfinite(beta) and beta > 0.0):
        raise DomainError("beta must be finite and > 0")
    _check_alpha(alpha)
    if not math.isfinite(sigma := beta * sigma_alpha(alpha)):
        raise DomainError(f"beta * sigma_alpha must be finite, got beta={beta!r} at alpha={alpha!r}")
    eps_list = [float(e) for e in epsilons]
    if not eps_list or any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise DomainError("epsilons must be non-empty and strictly decreasing")
    params = FunctionalParams(alpha, sigma, m)
    member = moser_navier if bc is BoundaryKind.NAVIER else moser_dirichlet
    return params, eps_list, [member(MoserParams(eps, bc)) for eps in eps_list]


def blowup_scan(
    alpha: float,
    beta: float,
    epsilons: Sequence[float],
    m: Optional[int] = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
    bc: BoundaryKind = BoundaryKind.NAVIER,
) -> ThresholdExperiment:
    """Evaluate F (or F_m) at sigma = beta * sigma_alpha along an eps scan.

    Each member is normalized onto the unit energy sphere by the closed-form
    energy its constructor sets, which the norm_sqs column records, before
    evaluation.  The lower_bound_exponent column records
    (alpha+4)/4 * ((beta-1) |log eps| - 4), the predicted log-scale floor of
    a diverging scan.  A value below the normal doubles raises NonFinite.
    """
    params, eps_list, members = check_scan(alpha, beta, epsilons, m, bc)
    values = weighted_functional_batch([(scale_to_unit(u, u.energy), params) for u in members], spec)
    for eps, val in zip(eps_list, values):
        if not sys.float_info.min <= val < math.inf:
            raise NonFinite(f"value = {val!r} at epsilon={eps:g}: log_value needs its log")
    log_values = [math.log(val) for val in values]
    lbes = [(alpha + 4.0) / 4.0 * ((beta - 1.0) * -math.log(eps) - 4.0) for eps in eps_list]

    verdict = _classify(eps_list, values, beta)
    return ThresholdExperiment(
        norm_sqs=tuple(u.energy for u in members),
        values=tuple(values),
        log_values=tuple(log_values),
        lower_bound_exponents=tuple(lbes),
        verdict=verdict,
    )
