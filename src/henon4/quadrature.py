"""Adaptive Gauss-Kronrod quadrature.

All integrands are vectorized callables f(x: ndarray) -> ndarray.  The
finite-interval driver uses the 15-point Kronrod / 7-point Gauss pair with
QUADPACK's scaled error estimate and batched interval bisection.  Endpoints
are never evaluated (all Kronrod nodes are interior), so integrable endpoint
singularities of algebraic or logarithmic type are handled by refinement
alone.

The half-line driver accumulates dyadic doubling blocks [a, a+1], [a+1, a+3],
[a+3, a+7], ...  Monotone growth of the block estimates over 8 consecutive
doublings raises Divergent; once decay is established the unbounded remainder
is folded onto (0, 1) by the algebraic substitution t = T + s/(1-s) and
integrated adaptively with dyadic seeding, so features at any t-scale
representable in float64 are resolved.  (A logarithmic substitution would
compress everything beyond t - T ~ 37 into a single ulp at s = 1 and lose
e.g. concentration regions of extremal profiles; the algebraic map does not.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import Divergent, DomainError, NonConvergence, NonFinite, as_index

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "integrate",
    "integrate_halfline",
    "DEFAULT_SPEC",
]


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise DomainError("tolerances must be finite and strictly positive")
        if as_index(self.max_subdivisions, "max_subdivisions") < 1:
            raise DomainError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    subdivisions_used: int

    def __post_init__(self) -> None:
        if not self.error_estimate >= 0.0:
            raise DomainError("error_estimate must be >= 0")


DEFAULT_SPEC = QuadratureSpec()

# 15-point Kronrod extension of the 7-point Gauss rule (QUADPACK dqk15).
_XGK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

# nodes in increasing order: -x0..-x6, 0, x6..x0
_XGK = np.concatenate([-_XGK_HALF[:7], [0.0], _XGK_HALF[6::-1]])
_WGK = np.concatenate([_WGK_HALF[:7], [_WGK_HALF[7]], _WGK_HALF[6::-1]])
# Gauss weights aligned with the Kronrod node ordering; zero on Kronrod-only nodes.
_WG = np.zeros(15)
_WG[1:7:2] = _WG_HALF[:3]
_WG[7] = _WG_HALF[3]
_WG[9:15:2] = _WG_HALF[2::-1]

_MAX_BATCH = 64


def _gk15_batch(f: Callable, los: np.ndarray, his: np.ndarray):
    """Evaluate the G7/K15 pair on a batch of intervals.

    Returns (values, error_estimates) with QUADPACK's resasc scaling, which
    keeps the estimate realistic near integrable endpoint singularities.
    """
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    xs = mid[:, None] + half[:, None] * _XGK[None, :]
    fx = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    if not np.all(np.isfinite(fx)):
        bad = xs.ravel()[~np.isfinite(fx.ravel())][:1]
        raise NonFinite(f"integrand non-finite near x={bad[0]!r}")
    resk = (fx * _WGK[None, :]).sum(axis=1) * half
    resg = (fx * _WG[None, :]).sum(axis=1) * half
    reskh = resk / (2.0 * half)  # mean value of f on the interval
    resasc = (np.abs(fx - reskh[:, None]) * _WGK[None, :]).sum(axis=1) * np.abs(half)
    raw = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, raw)
    return resk, err


def _clean_breakpoints(a: float, b: float, breakpoints: Sequence[float]) -> list[float]:
    pts = sorted({float(p) for p in breakpoints if a < p < b})
    return [a] + pts + [b]


def integrate(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    breakpoints: Sequence[float] = (),
) -> IntegralResult:
    """Adaptive integral of f over the finite interval (a, b).

    `breakpoints` lists interior abscissae where the integrand is known to be
    non-smooth; the initial partition is split there.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"need finite a < b, got [{a}, {b}]")

    edges = _clean_breakpoints(a, b, breakpoints)
    los = np.array(edges[:-1])
    his = np.array(edges[1:])
    vals, errs = _gk15_batch(f, los, his)

    while True:
        total = float(vals.sum())
        err_total = float(errs.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        n = los.size
        if err_total <= tol:
            return IntegralResult(total, err_total, n)
        if n >= spec.max_subdivisions:
            raise NonConvergence(
                f"error {err_total:.3e} > tol {tol:.3e} after {n} subdivisions"
            )
        # Split every interval above its equidistributed error share, worst
        # first, capped per round; always split at least the worst one.
        order = np.argsort(errs, kind="stable")[::-1]
        share = 0.5 * tol / n
        k = int(np.count_nonzero(errs > share))
        k = max(1, min(k, _MAX_BATCH, spec.max_subdivisions - n))
        pick = order[:k]
        mids = 0.5 * (los[pick] + his[pick])
        new_los = np.concatenate([los[pick], mids])
        new_his = np.concatenate([mids, his[pick]])
        new_vals, new_errs = _gk15_batch(f, new_los, new_his)
        keep = np.ones(n, dtype=bool)
        keep[pick] = False
        los = np.concatenate([los[keep], new_los])
        his = np.concatenate([his[keep], new_his])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


# Half-line policy constants (declared decision rules, not tunables).
_DIVERGENCE_DOUBLINGS = 8  # monotone block growth over this many doublings
_MAX_BLOCKS = 60
_TAIL_SEED_LEVELS = 40  # dyadic seeds for the mapped remainder


def integrate_halfline(
    f: Callable,
    a: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    breakpoints: Sequence[float] = (),
) -> IntegralResult:
    """Adaptive integral of f over [a, +infinity).

    Raises Divergent when the dyadic block estimates grow monotonically over
    8 consecutive doublings (e.g. a non-decaying integrand), NonConvergence
    when the budget runs out, NonFinite as in `integrate`.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError("lower limit must be finite")

    # Structural transitions at declared breakpoints are expected (plateaus,
    # seams of piecewise profiles); divergence is only diagnosed on blocks
    # that lie entirely beyond the last of them.
    guard_start = max([a] + [float(b) for b in breakpoints if b > a])

    total = 0.0
    err_total = 0.0
    used = 0
    grow_run = 0
    prev_mag = None
    lo = a
    block_mags: list[float] = []
    n_decay_needed = 3

    for k in range(_MAX_BLOCKS):
        hi = a + (2.0**(k + 1)) - 1.0
        res = integrate(f, lo, hi, spec, breakpoints)
        total += res.value
        err_total += res.error_estimate
        used += res.subdivisions_used
        mag = abs(res.value)
        block_mags.append(mag)

        floor = max(spec.abs_tol, 0.25 * spec.rel_tol * abs(total))
        in_tail = lo >= guard_start
        if (
            in_tail
            and prev_mag is not None
            and mag >= prev_mag * (1.0 - 1e-12)
            and mag > floor
        ):
            grow_run += 1
        else:
            grow_run = 0
        if grow_run >= _DIVERGENCE_DOUBLINGS:
            raise Divergent(
                f"tail blocks non-decreasing over {_DIVERGENCE_DOUBLINGS} doublings "
                f"(t up to {hi:.3g})"
            )
        prev_mag = mag
        lo = hi

        decayed = (
            len(block_mags) > n_decay_needed
            and all(
                block_mags[-i] <= 0.9 * block_mags[-i - 1] + floor
                for i in range(1, n_decay_needed + 1)
            )
        )
        if decayed or mag <= floor:
            break
    else:
        raise NonConvergence(f"no tail decay within {_MAX_BLOCKS} dyadic blocks")

    tail = _mapped_tail(f, lo, spec, breakpoints)
    return IntegralResult(
        total + tail.value,
        err_total + tail.error_estimate,
        used + tail.subdivisions_used,
    )


def _mapped_tail(
    f: Callable,
    t0: float,
    spec: QuadratureSpec,
    breakpoints: Sequence[float],
) -> IntegralResult:
    """Integral of f over [t0, inf) via t = t0 + s/(1-s), s in (0, 1)."""

    def g(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s)
        one_minus = 1.0 - s
        t = t0 + s / one_minus
        return np.asarray(f(t)) / one_minus**2

    seeds = [1.0 - 0.5**j for j in range(1, _TAIL_SEED_LEVELS)]
    for p in breakpoints:
        if p > t0:
            d = p - t0
            seeds.append(d / (1.0 + d))
    return integrate(g, 0.0, 1.0, spec, seeds)
