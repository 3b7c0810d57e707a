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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, PreconditionError, ThresholdError, as_index
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate

__all__ = [
    "OMEGA_3",
    "BALL_VOLUME",
    "BoundaryKind",
    "RadialProfile",
    "FunctionalParams",
    "sigma_alpha",
    "laplacian_l2_sq",
    "weighted_functional",
    "weighted_lp_norm_p",
    "embedding_bound",
    "series_upper_bound",
    "pointwise_log_bound_margin",
    "exp_minus_taylor",
    "scale_to_unit",
    "unit_energy",
    "assert_boundary_conditions",
    "poly_profile",
    "power_profile",
    "ring_profile",
    "cos2_profile",
    "sinpoly_profile",
    "corpus_names",
    "corpus_profile",
]

OMEGA_3 = 2.0 * math.pi**2
BALL_VOLUME = OMEGA_3 / 4.0


class BoundaryKind(Enum):
    NAVIER = "navier"  # u(1) = 0
    DIRICHLET = "dirichlet"  # u(1) = 0 and u'(1) = 0


@dataclass(frozen=True)
class RadialProfile:
    """Closed-form radial function with two derivatives on (0, 1]."""

    value: Callable
    d1: Callable
    d2: Callable
    boundary: BoundaryKind
    description: str
    breakpoints: tuple = ()

    def __call__(self, r):
        return self.value(r)

    def scaled(self, c: float) -> "RadialProfile":
        c = float(c)
        u = self
        return RadialProfile(
            value=lambda r: c * u.value(r),
            d1=lambda r: c * u.d1(r),
            d2=lambda r: c * u.d2(r),
            boundary=u.boundary,
            description=f"{c:.6g}*({u.description})",
            breakpoints=u.breakpoints,
        )


def assert_boundary_conditions(u: RadialProfile, tol: float = 1e-12) -> None:
    """Check u(1) = 0 (and u'(1) = 0 for Dirichlet) to `tol`."""
    v1 = float(np.asarray(u.value(np.array([1.0])))[0])
    if abs(v1) > tol:
        raise PreconditionError(f"{u.description}: |u(1)| = {abs(v1):.3e} > {tol:.0e}")
    if u.boundary is BoundaryKind.DIRICHLET:
        d1 = float(np.asarray(u.d1(np.array([1.0])))[0])
        if abs(d1) > tol:
            raise PreconditionError(
                f"{u.description}: |u'(1)| = {abs(d1):.3e} > {tol:.0e}"
            )


@dataclass(frozen=True)
class FunctionalParams:
    """Weight exponent, exponential coefficient, optional truncation order."""

    alpha: float
    sigma: float
    m: Optional[int] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise DomainError("alpha must be finite and >= 0")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError("sigma must be finite and > 0")
        if self.m is not None and as_index(self.m, "m") < 0:
            raise DomainError("m must be a natural number when present")

    def sigma_alpha(self) -> float:
        return sigma_alpha(self.alpha)


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
    bit, the fixed 40-term sum that this branch used when it stopped at
    z = 0.5: both add the same terms in the same order up to the shorter
    count, and the terms beyond it change nothing.  For m > 142 the first
    term is formed as the running product prod_{k<=m+1} z/k, because z^(m+1)
    or (m+1)! would overflow a double; a value that still overflows is inf or
    nan, which the quadrature drivers report as NonFinite.
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


def laplacian_l2_sq(u: RadialProfile, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """integral_B |Delta u|^2 dx for a radial profile."""

    def integrand(r):
        rr = np.asarray(r)
        sq = np.sqrt(rr)
        return (rr * sq * u.d2(rr) + 3.0 * sq * u.d1(rr)) ** 2

    res = integrate(integrand, 0.0, 1.0, spec, u.breakpoints)
    return OMEGA_3 * res.value


# Levels of the weight's dyadic partition; 1 - 2^-53 is the last double of
# the ladder 1 - 2^-k below 1.
_WEIGHT_LEVELS_MAX = 53


def _weight_partition(alpha: float, breakpoints: tuple) -> tuple:
    """The profile's breakpoints plus 1 - 2^-k for k = 1..K, with
    K = min(ceil(log2(alpha+4)), 53); `integrate` sorts and merges them."""
    levels = min(math.ceil(math.log2(alpha + 4.0)), _WEIGHT_LEVELS_MAX)
    return tuple(breakpoints) + tuple(1.0 - 0.5**k for k in range(1, levels + 1))


def weighted_functional(
    u: RadialProfile,
    p: FunctionalParams,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """F(u) or F_m(u): the weighted exponential functional of the profile.

    The weight r^(alpha+3) puts the mass of the integral into a layer of
    width about 1/(alpha+4) at r = 1.  The integral therefore starts from the
    points 1 - 2^-k for k = 1..min(ceil(log2(alpha+4)), 53), merged with the
    profile's breakpoints, which reach that layer in the first GK15 round;
    bisecting from [0, 1] would take about log2(alpha+4) rounds to get there.
    The seeded intervals count against `spec.max_subdivisions`.
    """
    sigma, alpha, m = p.sigma, p.alpha, p.m

    def integrand(r):
        rr = np.asarray(r)
        s = u.value(rr)
        return rr ** (alpha + 3.0) * exp_minus_taylor(sigma * s * s, m)

    res = integrate(integrand, 0.0, 1.0, spec, _weight_partition(alpha, u.breakpoints))
    return OMEGA_3 * res.value


def weighted_lp_norm_p(
    u: RadialProfile,
    pexp: float,
    alpha: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """integral_B |x|^alpha |u|^p dx (the p-th power of the weighted norm).

    As in `weighted_functional`, the weight r^(alpha+3) concentrates the
    integral in a layer of width about 1/(alpha+4) at r = 1, so it starts
    from the points 1 - 2^-k for k = 1..min(ceil(log2(alpha+4)), 53), merged
    with the profile's breakpoints.
    """
    if pexp < 1.0:
        raise DomainError("pexp must be >= 1")
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise DomainError("alpha must be finite and >= 0")

    def integrand(r):
        rr = np.asarray(r)
        return rr ** (alpha + 3.0) * np.abs(u.value(rr)) ** pexp

    res = integrate(integrand, 0.0, 1.0, spec, _weight_partition(alpha, u.breakpoints))
    return OMEGA_3 * res.value


def embedding_bound(pexp: float, alpha: float, lap_norm: float) -> float:
    """Closed-form majorant of the weighted L^p norm on the energy sphere.

    With eps_emb = 4/(4+alpha) (the substitution exponent r = rho^eps_emb):

        integral_B |x|^alpha |u|^p
            <= (eps_emb/4)^{1+p/2} Gamma(1+p/2) OMEGA_3^{1-p/2} 2^{-p}
               * ||Delta u||_2^p.
    """
    if pexp < 1.0 or alpha < 0.0 or lap_norm < 0.0:
        raise DomainError("need pexp >= 1, alpha >= 0, lap_norm >= 0")
    eps_emb = 4.0 / (4.0 + alpha)
    return (
        (eps_emb / 4.0) ** (1.0 + pexp / 2.0)
        * math.gamma(1.0 + pexp / 2.0)
        * OMEGA_3 ** (1.0 - pexp / 2.0)
        / 2.0**pexp
        * lap_norm**pexp
    )


def series_upper_bound(p: FunctionalParams, lap_norm: float) -> float:
    """Geometric sum of the termwise embedding bounds for F (or F_m).

    Valid below threshold.  With x = sigma * lap_norm^2 / sigma_alpha:
        F   <= OMEGA_3 / ((4+alpha) (1-x))
        F_m <= OMEGA_3 / (4+alpha) * x^{m+1} / (1-x)
    (the truncated tail starts at k = m+1 since F_m subtracts through k = m).
    """
    sa = p.sigma_alpha()
    if p.sigma >= sa:
        raise ThresholdError(f"sigma = {p.sigma:.6g} >= sigma_alpha = {sa:.6g}")
    if lap_norm > 1.0 + 1e-9:
        raise PreconditionError("series bound assumes the unit energy ball")
    x = p.sigma * lap_norm**2 / sa
    base = OMEGA_3 / (4.0 + p.alpha)
    if p.m is None:
        return base / (1.0 - x)
    return base * x ** (p.m + 1) / (1.0 - x)


_LOG_BOUND_NODES = 512


def pointwise_log_bound_margin(u: RadialProfile, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Worst ratio of |u(r)| to its logarithmic pointwise bound.

    Evaluates sup over 512 log-spaced nodes of
        |u(r)| * 2 sqrt(OMEGA_3) / (sqrt(-log r) * ||Delta u||_2);
    the radial pointwise estimate asserts this never exceeds 1.
    Returns 0.0 for the zero profile by convention.
    """
    lap = laplacian_l2_sq(u, spec)
    if lap <= 0.0:
        return 0.0
    r = np.geomspace(1e-6, 1.0 - 1e-6, _LOG_BOUND_NODES)
    vals = np.abs(np.asarray(u.value(r)))
    bound = np.sqrt(-np.log(r)) * math.sqrt(lap) / (2.0 * math.sqrt(OMEGA_3))
    return float(np.max(vals / bound))


def scale_to_unit(u: RadialProfile, energy: float) -> RadialProfile:
    """Scale a profile of the given energy ||Delta u||_2^2 onto the unit
    energy sphere ||Delta u||_2 = 1.

    The package's one normalisation rule: an energy that is not finite and
    positive raises DomainError.  Callers that already hold the energy (the
    identity suite, the symmetry sweep's family table, `moser.blowup_scan`)
    pass it here; `unit_energy` integrates it first.
    """
    if not (energy > 0.0 and math.isfinite(energy)):
        raise DomainError(f"cannot normalize {u.description} of energy {energy!r}")
    return u.scaled(1.0 / math.sqrt(energy))


def unit_energy(u: RadialProfile, spec: QuadratureSpec = DEFAULT_SPEC) -> RadialProfile:
    """Scale a profile onto the unit energy sphere ||Delta u||_2 = 1,
    integrating its energy with `laplacian_l2_sq` (see `scale_to_unit`)."""
    return scale_to_unit(u, laplacian_l2_sq(u, spec))


# ---------------------------------------------------------------------------
# closed-form profile constructors
# ---------------------------------------------------------------------------


def poly_profile(j: int) -> RadialProfile:
    """u = (1 - r^2)^j; Navier for j = 1, Dirichlet for j >= 2."""
    if j < 1:
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

    return RadialProfile(value, d1, d2, bc, f"poly{2*j}")


def power_profile(q: float) -> RadialProfile:
    """u = 1 - r^q (Navier); q = 2 is the boundary-adapted parabola."""
    if not q > 0.0:
        raise DomainError("q > 0 required")

    def value(r):
        return 1.0 - np.asarray(r) ** q

    def d1(r):
        return -q * np.asarray(r) ** (q - 1.0)

    def d2(r):
        return -q * (q - 1.0) * np.asarray(r) ** (q - 2.0)

    return RadialProfile(value, d1, d2, BoundaryKind.NAVIER, f"pow:{q:.6g}")


def ring_profile(rho0: float, h: float) -> RadialProfile:
    """Annular bump exp(-((r-rho0)/h)^2) * (1 - r^2); concentrates off-origin."""
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

    return RadialProfile(
        value, d1, d2, BoundaryKind.NAVIER, f"ring:{rho0:.6g}:{h:.6g}"
    )


def cos2_profile() -> RadialProfile:
    """u = cos^2(pi r / 2) = (1 + cos(pi r))/2 (Dirichlet)."""

    def value(r):
        return 0.5 * (1.0 + np.cos(math.pi * np.asarray(r)))

    def d1(r):
        return -0.5 * math.pi * np.sin(math.pi * np.asarray(r))

    def d2(r):
        return -0.5 * math.pi**2 * np.cos(math.pi * np.asarray(r))

    return RadialProfile(value, d1, d2, BoundaryKind.DIRICHLET, "cos2")


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

    return RadialProfile(value, d1, d2, BoundaryKind.DIRICHLET, "sinpoly")


_CORPUS = (
    "poly2",
    "poly4",
    "poly6",
    "pow:3",
    "pow:6",
    "cos2",
    "sinpoly",
    "ring:0.55:0.25",
    "ring:0.8:0.12",
    "moser:1e-2:navier",
    "moser:1e-4:navier",
    "moser:1e-4:dirichlet",
    "moser:1e-6:dirichlet",
)


def corpus_names() -> tuple:
    """Names of the built-in test corpus, addressable from the CLI."""
    return _CORPUS


def corpus_profile(name: str) -> RadialProfile:
    """Build a corpus profile by name (see `corpus_names`)."""
    parts = name.split(":")
    kind = parts[0]
    if kind == "poly2":
        return poly_profile(1)
    if kind == "poly4":
        return poly_profile(2)
    if kind == "poly6":
        return poly_profile(3)
    if kind == "pow":
        return power_profile(float(parts[1]))
    if kind == "cos2":
        return cos2_profile()
    if kind == "sinpoly":
        return sinpoly_profile()
    if kind == "ring":
        return ring_profile(float(parts[1]), float(parts[2]))
    if kind == "moser":
        from .moser import MoserParams, moser_dirichlet, moser_navier

        eps = float(parts[1])
        bc = BoundaryKind(parts[2])
        mp = MoserParams(eps, bc)
        return moser_navier(mp) if bc is BoundaryKind.NAVIER else moser_dirichlet(mp)
    raise DomainError(f"unknown corpus profile {name!r}")
