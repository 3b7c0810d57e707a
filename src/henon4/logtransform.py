"""Logarithmic change of variables and the associated energy identities.

For gamma > 0 the map w(t) = 2 sqrt(OMEGA_3 * gamma) * u(e^{-t/gamma}) turns a
radial profile on (0, 1] into a function on [0, infinity) with w(0) = 0, and

    integral_B |Delta u|^2 dx = int_0^inf | gamma/2 w''(t) - w'(t) |^2 dt,

    integral_B |x|^alpha e^{sigma u^2} dx
        = (OMEGA_3/gamma) * int_0^inf
              exp( sigma w^2 / (4 OMEGA_3 gamma) - (alpha+4) t / gamma ) dt.

With gamma = alpha + 4 and sigma at the sharp threshold the exponent reduces
to w^2 - t.  A second exact identity comes from v(t) = u(1/sqrt(t)):

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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, Henon4Error, PreconditionError
from .profiles import OMEGA_3, RadialProfile
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_halfline

__all__ = [
    "LogProfile",
    "to_log_profile",
    "log_energy",
    "sqrt_transform_energy",
    "weighted_exp_integral_log",
    "marshall_moser_integral",
    "PsiMember",
    "marshall_moser_family",
    "EstimatesReport",
    "estimates_check",
]


@dataclass(frozen=True)
class LogProfile:
    """Function w on [0, infinity) with its scaling parameter gamma."""

    gamma: float
    w: Callable
    w1: Callable
    w2: Callable
    source: str = ""
    breakpoints: tuple = ()


def to_log_profile(u: RadialProfile, gamma: float) -> LogProfile:
    """Transform a radial profile; derivatives by the chain rule at r = e^{-t/gamma}."""
    if not gamma > 0.0:
        raise PreconditionError("gamma must be > 0")
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
    return LogProfile(gamma, w, w1, w2, source=u.description, breakpoints=bps)


def log_energy(wp: LogProfile, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """int_0^inf (gamma/2 * w'' - w')^2 dt."""
    g = wp.gamma

    def integrand(t):
        return (0.5 * g * wp.w2(t) - wp.w1(t)) ** 2

    return integrate_halfline(integrand, 0.0, spec, wp.breakpoints).value


def sqrt_transform_energy(u: RadialProfile, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """8 OMEGA_3 int_1^inf |v''(t)|^2 t^3 dt with v(t) = u(1/sqrt(t))."""

    def integrand(t):
        tt = np.asarray(t, dtype=float)
        r = 1.0 / np.sqrt(tt)
        vpp = u.d2(r) / (4.0 * tt**3) + 3.0 * u.d1(r) / (4.0 * tt**2.5)
        return vpp**2 * tt**3

    bps = tuple(b**-2.0 for b in u.breakpoints if 0.0 < b < 1.0)
    return 8.0 * OMEGA_3 * integrate_halfline(integrand, 1.0, spec, bps).value


def weighted_exp_integral_log(
    wp: LogProfile,
    alpha: float,
    sigma: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """The weighted exponential functional evaluated in the log variable.

    Returns (OMEGA_3/gamma) int_0^inf exp(sigma w^2/(4 OMEGA_3 gamma)
    - (alpha+4) t/gamma) dt.  Divergent propagates from the tail blocks and is
    meaningful output for super-threshold inputs.
    """
    g = wp.gamma
    cw = sigma / (4.0 * OMEGA_3 * g)
    ct = (alpha + 4.0) / g

    def integrand(t):
        tt = np.asarray(t, dtype=float)
        ww = wp.w(tt)
        return np.exp(cw * ww * ww - ct * tt)

    return OMEGA_3 / g * integrate_halfline(integrand, 0.0, spec, wp.breakpoints).value


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


# ---------------------------------------------------------------------------
# pointwise growth estimates for decreasing-profile transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatesReport:
    est1_ok: bool
    est2_ok: bool
    est3_ok: bool
    w0_ok: bool
    margins: tuple  # worst (lhs - rhs) for est1, est2, est3, w'(0) bounds
    tail_kappa: float  # (w(T)/sqrt(T))^2 at the truncation horizon
    tail_bound: float  # e^{T (kappa - 1)}, certified tail of e^{w^2 - t}

    @property
    def all_ok(self) -> bool:
        return self.est1_ok and self.est2_ok and self.est3_ok and self.w0_ok


_MARGIN_TOL = 1e-9
_CHECK_NODES = 2001


def estimates_check(
    wp: LogProfile,
    alpha: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> EstimatesReport:
    """Grid check of the growth estimates for unit-energy decreasing sources.

    On 2001 equispaced nodes of t in [0, T], T = 50 (alpha+4), verifies
        w'(t) - w'(0) <= 2/(alpha+4) (sqrt(t) + w(t)),
        w(t)          <= sqrt(t),
        w'(t)         <= sqrt(2/(alpha+4)) (1 + 2 sqrt(t/(alpha+4))),
        0 <= w'(0)    <= sqrt(2/(alpha+4)),
    reporting worst signed margins (ok iff margin <= 1e-9).  DomainError for
    a non-finite or negative alpha; PreconditionError when the transform did
    not come from an admissible decreasing profile (energy above 1, negative
    or non-finite w').
    """
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise DomainError("alpha must be finite and >= 0")
    ap4 = alpha + 4.0
    T = 50.0 * ap4
    t = np.linspace(0.0, T, _CHECK_NODES)

    w_vals = np.asarray(wp.w(t), dtype=float)
    w1_vals = np.asarray(wp.w1(t), dtype=float)
    if not (np.all(np.isfinite(w_vals)) and np.all(np.isfinite(w1_vals))):
        raise PreconditionError("w or w' non-finite on the check grid")
    if np.min(w1_vals) < -_MARGIN_TOL:
        raise PreconditionError("w' < 0: source profile is not radially decreasing")

    try:
        energy = log_energy(wp, spec)
    except Henon4Error as exc:
        raise PreconditionError(f"energy not evaluable: {exc}") from exc
    if energy > 1.0 + 1e-9:
        raise PreconditionError(f"energy {energy:.12g} exceeds the unit sphere")

    w10 = float(w1_vals[0])
    sqrt_t = np.sqrt(t)
    est1 = float(np.max(w1_vals - w10 - (2.0 / ap4) * (sqrt_t + w_vals)))
    est2 = float(np.max(w_vals - sqrt_t))
    est3 = float(np.max(w1_vals - math.sqrt(2.0 / ap4) * (1.0 + 2.0 * np.sqrt(t / ap4))))
    w0 = max(-w10, w10 - math.sqrt(2.0 / ap4))

    wT = float(w_vals[-1])
    kappa = (wT / math.sqrt(T)) ** 2 if T > 0 else 0.0
    tail = math.exp(min(T * (kappa - 1.0), 700.0))

    return EstimatesReport(
        est1_ok=est1 <= _MARGIN_TOL,
        est2_ok=est2 <= _MARGIN_TOL,
        est3_ok=est3 <= _MARGIN_TOL,
        w0_ok=w0 <= _MARGIN_TOL,
        margins=(est1, est2, est3, w0),
        tail_kappa=kappa,
        tail_bound=tail,
    )
