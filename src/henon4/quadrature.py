"""Adaptive Gauss-Kronrod quadrature.

All integrands are vectorized callables f(x: ndarray) -> ndarray.  The
finite-interval driver uses the 15-point Kronrod / 7-point Gauss pair with
QUADPACK's scaled error estimate and batched interval bisection.  Endpoints
are never evaluated (all Kronrod nodes are interior), so integrable endpoint
singularities of algebraic or logarithmic type are handled by refinement
alone.

The half-line driver follows QUADPACK's qagi: [a, inf) is mapped once onto
(0, 1) by the algebraic substitution t = a + s/(1-s) and integrated by the
finite-interval driver under the same single test, error <= rel_tol * |value|.
The mapped integral is seeded at the images s = 1 - 2^-j of the dyadic block
edges t = a + 2^j - 1, so features at any t-scale representable in float64
are resolved.  (A logarithmic substitution would compress everything beyond
t - a ~ 37 into a single ulp at s = 1 and lose e.g. concentration regions of
extremal profiles; the algebraic map does not.)  Before it, a probe takes one
G7/K15 estimate per dyadic block [a, a+1], [a+1, a+3], [a+3, a+7], ...:
monotone growth over 8 consecutive doublings raises Divergent, and the
mapped integral starts once the block estimates decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

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
    """Accuracy request of every integral: error <= rel_tol * |value|.

    There is no absolute tolerance to set: the weighted functionals on the
    unit energy sphere decay like alpha^-4..alpha^-7 and reach 1e-23 at
    large alpha, far below any fixed absolute tolerance.  `abs_tol` is a
    constant floor that only lets an identically zero integrand terminate.
    """

    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    abs_tol: ClassVar[float] = 1e-300

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < math.inf:
            raise DomainError("rel_tol must be finite and strictly positive")
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
# The mapped integral is seeded at s = 1 - 2^-j, j = 1..39, the images of the
# block edges t = a + 2^j - 1.  The outermost Kronrod node of the last seed
# interval then sits at 1 - s ~ 2^-47 (t ~ 1e14); seeds down to 2^-51 would
# round it to s = 1.0, where g is not finite.
_SEED_LEVELS = 40


def integrate_halfline(
    f: Callable,
    a: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    breakpoints: Sequence[float] = (),
) -> IntegralResult:
    """Adaptive integral of f over [a, +infinity): one `integrate` of
    g(s) = f(a + s/(1-s)) / (1-s)^2 over (0, 1), seeded at the images of the
    dyadic block edges and of `breakpoints`.

    Raises Divergent when the probe's block estimates beyond the last
    breakpoint grow monotonically over 8 consecutive doublings (e.g. a
    non-decaying integrand), NonConvergence when they show no decay within
    60 blocks or the budget runs out, NonFinite as in `integrate`.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError("lower limit must be finite")

    # Structural transitions at declared breakpoints are expected (plateaus,
    # seams of piecewise profiles); divergence is only diagnosed on blocks
    # that lie entirely beyond the last of them.
    guard_start = max([a] + [float(b) for b in breakpoints if b > a])

    probe_sum = 0.0
    grow_run = 0
    block_mags: list[float] = []
    n_decay_needed = 3

    for k in range(_MAX_BLOCKS):
        lo = a + (2.0**k) - 1.0
        hi = a + (2.0**(k + 1)) - 1.0
        est, _ = _gk15_batch(f, np.array([lo]), np.array([hi]))
        probe_sum += float(est[0])
        mag = abs(float(est[0]))

        floor = max(spec.abs_tol, 0.25 * spec.rel_tol * abs(probe_sum))
        if (
            lo >= guard_start
            and block_mags
            and mag >= block_mags[-1] * (1.0 - 1e-12)
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
        block_mags.append(mag)

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

    def g(s: np.ndarray) -> np.ndarray:
        one_minus = 1.0 - s
        return np.asarray(f(a + s / one_minus)) / one_minus**2

    seeds = [1.0 - 0.5**j for j in range(1, _SEED_LEVELS)]
    seeds += [(p - a) / (1.0 + p - a) for p in breakpoints if p > a]
    return integrate(g, 0.0, 1.0, spec, seeds)
