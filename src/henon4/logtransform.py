"""Logarithmic change of variables and the associated energy identities.

For gamma > 0 the map w(t) = 2 sqrt(OMEGA_3 * gamma) * u(e^{-t/gamma}) turns a
radial profile on (0, 1] into a function on [0, infinity) with w(0) = 0, and

    integral_B |Delta u|^2 dx = int_0^inf | gamma/2 w''(t) - w'(t) |^2 dt,

    integral_B |x|^alpha e^{sigma u^2} dx
        = (OMEGA_3/gamma) * int_0^inf
              exp( sigma w^2 / (4 OMEGA_3 gamma) - (alpha+4) t / gamma ) dt.

With gamma = alpha + 4 and sigma at the sharp threshold the exponent reduces
to w^2 - t.  The package computes F only as `profiles.weighted_functional`.

A second exact identity comes from v(t) = u(1/sqrt(t)):

    integral_B |Delta u|^2 dx = 8 OMEGA_3 int_1^inf |v''(t)|^2 t^3 dt.

Derivatives of a transformed profile are always produced by the chain rule
from the source profile's closed-form derivatives, never by differencing.

The boundedness engine is the one-dimensional lemma: if int_0^inf psi^2 <= 1
then int_0^inf exp(-F) dt is finite, where F(t) = t - (int_0^t psi)^2.  The
scan family below exercises it with box, exponential, triangular, slowly
saturating and pulse-shaped psi.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .profiles import OMEGA_3, RadialProfile
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_halfline

__all__ = [
    "LogProfile",
    "to_log_profile",
    "log_energy",
    "sqrt_transform_energy",
    "marshall_moser_integral",
    "PsiMember",
    "marshall_moser_family",
]


@dataclass(frozen=True)
class LogProfile:
    """Function w on [0, infinity) with its scaling parameter gamma."""

    gamma: float
    w: Callable
    w1: Callable
    w2: Callable
    breakpoints: tuple = ()


# Largest gamma whose gamma**1.5, the scale of w'', is a finite double.
_GAMMA_MAX = sys.float_info.max ** (2.0 / 3.0)


def to_log_profile(u: RadialProfile, gamma: float) -> LogProfile:
    """Transform a radial profile; derivatives by the chain rule at r = e^{-t/gamma}.

    DomainError for a gamma above about 3.2e205, where gamma**1.5 overflows."""
    if not gamma > 0.0:
        raise PreconditionError("gamma must be > 0")
    if not gamma <= _GAMMA_MAX:
        raise DomainError(f"gamma = {gamma:g} is above {_GAMMA_MAX:.4g}, where gamma**1.5 overflows")
    amp = 2.0 * math.sqrt(OMEGA_3 * gamma)
    slope = 2.0 * math.sqrt(OMEGA_3 / gamma)
    curv = 2.0 * math.sqrt(OMEGA_3) / gamma**1.5

    # Radius floor: far tail nodes map to r below any profile's resolvable
    # scale; contributions there are < 1e-100 of any tolerance, and the floor
    # keeps r^(q-2)-type derivative factors finite.
    def _radius(t):
        return np.maximum(np.exp(-np.asarray(t, dtype=float) / gamma), 1e-180)

    def w(t):
        return amp * u.value(_radius(t))

    def w1(t):
        r = _radius(t)
        return -slope * r * u.d1(r)

    def w2(t):
        r = _radius(t)
        return curv * r * (u.d1(r) + r * u.d2(r))

    bps = tuple(gamma * (-math.log(b)) for b in u.breakpoints if 0.0 < b < 1.0)
    return LogProfile(gamma, w, w1, w2, breakpoints=bps)


def log_energy(wp: LogProfile, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """int_0^inf (gamma/2 * w'' - w')^2 dt, integrated as gamma * int_0^inf
    f(gamma s) ds: a transformed profile varies on the scale t ~ gamma, and
    in s = t/gamma its tail decays within the half-line's first doublings
    at every gamma.

    In s the integrand does not depend on gamma: with r = e^{-s},
    gamma (gamma/2 w'' - w')^2 = OMEGA_3 r^2 (r u'' + 3 u')^2, and the
    breakpoints b/gamma are -log of the profile's.  Two gammas of one
    profile differ only in the rounding of `to_log_profile`'s constants, so
    an identity check over several gammas checks those constants, not
    independent integrals."""
    g = wp.gamma

    def integrand(s):
        t = g * np.asarray(s, dtype=float)
        return (0.5 * g * wp.w2(t) - wp.w1(t)) ** 2

    return g * integrate_halfline(integrand, 0.0, spec, tuple(b / g for b in wp.breakpoints)).value


def sqrt_transform_energy(u: RadialProfile, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """8 OMEGA_3 int_1^inf |v''(t)|^2 t^3 dt with v(t) = u(1/sqrt(t))."""

    def integrand(t):
        tt = np.asarray(t, dtype=float)
        r = 1.0 / np.sqrt(tt)
        vpp = u.d2(r) / (4.0 * tt**3) + 3.0 * u.d1(r) / (4.0 * tt**2.5)
        return vpp**2 * tt**3

    bps = tuple(b**-2.0 for b in u.breakpoints if 0.0 < b < 1.0)
    return 8.0 * OMEGA_3 * integrate_halfline(integrand, 1.0, spec, bps).value


# ---------------------------------------------------------------------------
# one-dimensional boundedness lemma
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiMember:
    """An admissible psi with closed-form cumulative and L^2 mass."""

    name: str
    psi: Callable
    cumulative: Callable
    l2_sq: float
    support_hint: float
    breakpoints: tuple = ()


def marshall_moser_integral(
    psi: Callable,
    spec: QuadratureSpec = DEFAULT_SPEC,
    *,
    cumulative: Callable,
    l2_sq: float,
    support_hint: float = 512.0,
    breakpoints: Sequence[float] = (),
) -> float:
    """int_0^inf exp(-F) dt with F(t) = t - (int_0^t psi)^2.

    `cumulative` is the closed form of int_0^t psi and `l2_sq` the mass
    int_0^inf psi^2, which must be <= 1 (PreconditionError otherwise).  The
    half-line integral takes max(1, support_hint) as one more breakpoint.
    `psi` itself is not read: only `cumulative` enters the integral, and
    `test_marshall_moser_family_closed_forms_match_psi` checks that the two
    agree on every family member.
    """
    if l2_sq > 1.0 + 1e-9:
        raise PreconditionError(f"||psi||_2^2 = {l2_sq:.12g} exceeds 1")

    def integrand(t):
        tt = np.asarray(t, dtype=float)
        big_psi = np.asarray(cumulative(tt))
        return np.exp(big_psi**2 - tt)

    split = max(1.0, float(support_hint))
    return integrate_halfline(integrand, 0.0, spec, (*breakpoints, split)).value


def marshall_moser_family() -> tuple:
    """>= 20 admissible psi members used by the finiteness scan."""
    members = []

    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    members.append(PsiMember("zero", zero, zero, 0.0, 4.0))

    def box(T: float, amp: float = 1.0) -> PsiMember:
        c = amp / math.sqrt(T)

        def psi(t):
            tt = np.asarray(t, dtype=float)
            return np.where(tt < T, c, 0.0)

        def cum(t):
            return c * np.minimum(np.asarray(t, dtype=float), T)

        return PsiMember(
            f"box:{T:g}:{amp:g}", psi, cum, amp * amp, max(4.0, 2.0 * T), (T,)
        )

    for T in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
        members.append(box(T))
    for T in (1.0, 10.0, 100.0):
        members.append(box(T, amp=0.8))

    def expdecay(lam: float) -> PsiMember:
        c = math.sqrt(2.0 * lam)

        def psi(t):
            return c * np.exp(-lam * np.asarray(t, dtype=float))

        def cum(t):
            return math.sqrt(2.0 / lam) * (1.0 - np.exp(-lam * np.asarray(t, dtype=float)))

        return PsiMember(f"exp:{lam:g}", psi, cum, 1.0, max(4.0, 40.0 / lam))

    for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
        members.append(expdecay(lam))

    def triangle(T: float) -> PsiMember:
        c = math.sqrt(3.0 / T)

        def psi(t):
            tt = np.asarray(t, dtype=float)
            return np.where(tt < T, c * (1.0 - tt / T), 0.0)

        def cum(t):
            tt = np.minimum(np.asarray(t, dtype=float), T)
            return c * (tt - tt**2 / (2.0 * T))

        return PsiMember(f"tri:{T:g}", psi, cum, 1.0, max(4.0, 2.0 * T), (T,))

    for T in (2.0, 20.0, 60.0):
        members.append(triangle(T))

    def invlin() -> PsiMember:
        def psi(t):
            return 1.0 / (1.0 + np.asarray(t, dtype=float))

        def cum(t):
            return np.log1p(np.asarray(t, dtype=float))

        # exp(log^2(1+t) - t) decays once t >> log^2 t; 400 is deep in the tail
        return PsiMember("invlin", psi, cum, 1.0, 400.0)

    members.append(invlin())

    def cos_pulse(t0: float, width: float, mass: float = 0.9) -> PsiMember:
        amp = math.sqrt(mass * 4.0 / (3.0 * width))
        lo, hi = t0 - width, t0 + width
        total = amp * width  # int over the pulse of cos^2 is width

        def psi(t):
            tt = np.asarray(t, dtype=float)
            inside = (tt >= lo) & (tt <= hi)
            return np.where(
                inside, amp * np.cos(math.pi * (tt - t0) / (2.0 * width)) ** 2, 0.0
            )

        def cum(t):
            tt = np.asarray(t, dtype=float)
            s = np.clip(tt - t0, -width, width)
            val = amp * (s / 2.0 + width / (2.0 * math.pi) * np.sin(math.pi * s / width))
            return val + 0.5 * total

        return PsiMember(
            f"pulse:{t0:g}:{width:g}", psi, cum, mass, max(4.0, 2.0 * hi), (lo, hi)
        )

    members.append(cos_pulse(5.0, 3.0))
    members.append(cos_pulse(12.0, 6.0))

    assert len(members) >= 20
    return tuple(members)
