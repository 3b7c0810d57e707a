"""Adaptive Gauss-Kronrod quadrature.

All integrands are vectorized callables f(x: ndarray) -> ndarray.  The
finite-interval driver uses the 15-point Kronrod / 7-point Gauss pair with
QUADPACK's scaled error estimate and batched interval bisection.  Endpoints
are never evaluated (all Kronrod nodes are interior), so integrable endpoint
singularities of logarithmic type, and algebraic ones x^-q up to about
q = 0.9, are handled by refinement alone.  Stronger ones are not: with no
extrapolation (QUADPACK qags's epsilon algorithm) the G7/K15 estimate falls
below the true error, so `integrate(lambda x: x**-0.95, 0, 1)` returns a
value 2.1e-10 off at rel_tol = 1e-10 without an error.  On a half-line the
same holds for tails (1+t)^-p with 1.03 < p < 1.1, whose mapped integrand
is u^-(2-p) at u = 0; p <= 1.03 raises NonConvergence.

Nor is a layer narrower than the first round's node spacing: if every node
reads 0, every estimate is 0 and the sum is accepted, so
`integrate_halfline(lambda t: np.exp(-a*t) * t**4, 0.0)` at a = 1e6 returns
exactly 0.0 with error estimate 0 (true value 24/a^5; a = 1e5 is still
right).  Callers must scale the variable so that the layer is O(1) wide.

The half-line driver follows QUADPACK's qagi: [a, inf) is mapped once onto
(0, 1] by t = a + (1-u)/u, and g(u) = f(t)/u^2 is integrated under the same
single test, error <= rel_tol * |value|.  The singular end u = 0 keeps full
float64 resolution, so slowly decaying tails such as (1+t)^-1.2 converge.
The first round is seeded at u = 2^-j, the images of the dyadic block edges
t = a + 2^j - 1, so features at every t-scale up to ~5e11 are resolved at
once.  Its block estimates, read in increasing t, are also the divergence
test: monotone growth over 8 consecutive doublings raises Divergent.  The
same bisection loop as on a finite interval then refines that partition.

That loop, `_refine`, advances a list of independent problems in lockstep;
`integrate` and `integrate_halfline` are batches of one, and
`integrate_batch` runs many.  Each problem keeps its own partition, error
test, split order and subdivision count, and each round makes one
`_gk15_batch` call over the new intervals of every live problem, so a round
costs about the numpy call overhead of one problem's round.  A batch keeps
its lockstep results only when the run was silent: numpy's 'warn' modes
raise during it, and if anything raises (a bad interval, a failed
integral, the integrand, or a floating-point warning), the batch is
computed again as the loop of `integrate` it stands for, which raises the
loop's first failure and issues the loop's warnings in the loop's order.
A silent batch returns the bits of the loop on two conditions, which the
batch integrands of `profiles` keep:
  - every parameter of one problem's integrand is a scalar, as in its lone
    form: a broadcast exponent could take a different `pow` path;
  - what one call computes for the joined abscissae of several problems
    does not depend on the others' values, as for `exp_minus_taylor`, whose
    series adds terms that change no bit (its docstring).
The GK15 sums of one interval do not depend on the others in the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .errors import Divergent, DomainError, NonConvergence, NonFinite, as_index

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "integrate",
    "integrate_halfline",
    "integrate_batch",
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
    keeps the estimate realistic near integrable endpoint singularities.  A
    non-finite integrand value makes its interval's value non-finite; the
    drivers report it.
    """
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    xs = mid[:, None] + half[:, None] * _XGK[None, :]
    fx = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        resk = (fx * _WGK[None, :]).sum(axis=1) * half
        resg = (fx * _WG[None, :]).sum(axis=1) * half
        reskh = resk / (2.0 * half)  # mean value of f on the interval
        resasc = (np.abs(fx - reskh[:, None]) * _WGK[None, :]).sum(axis=1) * np.abs(half)
        raw = np.abs(resk - resg)
        scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, raw)
    return resk, err


def _clean_breakpoints(a: float, b: float, breakpoints: Sequence[float]) -> list[float]:
    pts = sorted({float(p) for p in breakpoints if a < p < b})
    return [a] + pts + [b]


def _partition(a: float, b: float, breakpoints: Sequence[float] = ()):
    """The first round's intervals on (a, b): (los, his), split at `breakpoints`."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"need finite a < b, got [{a}, {b}]")
    edges = _clean_breakpoints(a, b, breakpoints)
    return np.array(edges[:-1]), np.array(edges[1:])


def _name_x(x: float) -> str:
    return f"x={x!r}"


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
    los, his = _partition(a, b, breakpoints)
    (res,) = _refine(lambda x, parts: f(x), [(los, his, *_gk15_batch(f, los, his))], spec, _name_x)
    return res


def integrate_batch(
    f: Callable,
    problems: Sequence[tuple],
    spec: QuadratureSpec = DEFAULT_SPEC,
    then: Optional[Callable] = None,
) -> list:
    """Adaptive integrals of independent problems in lockstep, one GK15 round
    for all of them: what a loop of `integrate` would return, bit for bit.

    `problems[i]` is `(a, b)` or `(a, b, breakpoints)`.  The batch integrand
    `f(x, parts)` gets the joined abscissae of one round, and `parts` lists
    `(i, sl)` per problem, in input order: `x[sl]` are problem i's, and the
    returned array holds f_i there.  `then(i, result)`, the loop's next step
    after integral i, runs in input order once the integrals are done: what
    it returns is problem i's outcome and what it raises is problem i's
    failure.  Returns one outcome per problem, in input order (the
    IntegralResult without `then`).

    The lockstep run is kept only if it is silent: it runs with each numpy
    floating-point mode that is 'warn' set to 'raise' (other modes stay as
    the caller set them), and if anything in it raises, its results are
    dropped and the batch is the loop `then(i, integrate(f_i, a, b, spec,
    breakpoints))` over i, which raises the first failure and issues the
    warnings of the loop, in its order.
    """
    if not problems:
        return []
    then = then or (lambda i, res: res)
    raising = {kind: "raise" for kind, mode in np.geterr().items() if mode == "warn"}
    try:
        with np.errstate(**raising):
            split = [(i, *_partition(*problem)) for i, problem in enumerate(problems)]
            states = [(los, his, *res) for (_, los, his), res in zip(split, _round(f, split))]
            results = _refine(f, states, spec, _name_x)
    except Exception:
        return [
            then(i, integrate(lambda x: f(x, ((i, slice(None)),)), a, b, spec, *bps))
            for i, (a, b, *bps) in enumerate(problems)
        ]
    return [then(i, res) for i, res in enumerate(results)]


def _round(f: Callable, split: list) -> list:
    """One GK15 round of a batch: one `_gk15_batch` call over the new
    intervals of every problem in `split`, a list of (i, los, his, ...), with
    the batch integrand f(x, parts).  Returns (vals, errs) per entry."""
    if len(split) == 1:  # every round of the lone drivers: nothing to join
        i, los, his, *_ = split[0]
        return [_gk15_batch(lambda x: f(x, ((i, slice(None)),)), los, his)]
    parts, bounds, start = [], [], 0
    for i, los, *_ in split:
        end = start + los.size
        parts.append((i, slice(_XGK.size * start, _XGK.size * end)))
        bounds.append((start, end))
        start = end
    los = np.concatenate([entry[1] for entry in split])
    his = np.concatenate([entry[2] for entry in split])
    vals, errs = _gk15_batch(lambda x: f(x, parts), los, his)
    return [(vals[s:e], errs[s:e]) for s, e in bounds]


def _refine(f: Callable, states: list, spec: QuadratureSpec, name: Callable) -> list:
    """The one bisection loop of every driver, QUADPACK qag's, over
    independent problems in lockstep.

    `states[i]` is problem i's first partition and its estimates (los, his,
    vals, errs).  Each round, every live problem in input order meets its
    own test error <= rel_tol*|value|, or splits its own intervals, and one
    `_round` of the batch integrand `f` evaluates the new halves of all of
    them; `name` renders an abscissa for the NonFinite message.  Returns one
    IntegralResult per problem; raises the first failure it meets.
    """
    outcomes: list = [None] * len(states)
    live = range(len(states))
    while True:
        split = []
        for i in live:
            los, his, vals, errs = states[i]
            total = float(vals.sum())
            err_total = float(errs.sum())
            n = los.size
            if not (math.isfinite(total) and math.isfinite(err_total)):
                j = int(np.argmin(np.isfinite(vals) & np.isfinite(errs)))
                raise NonFinite(f"integrand non-finite near {name(0.5 * float(los[j] + his[j]))}")
            tol = max(spec.abs_tol, spec.rel_tol * abs(total))
            if err_total <= tol:
                outcomes[i] = IntegralResult(total, err_total, n)
                continue
            if n >= spec.max_subdivisions:
                raise NonConvergence(f"error {err_total:.3e} > tol {tol:.3e} after {n} subdivisions")
            # Split every interval above its equidistributed error share, worst
            # first, capped per round; always split at least the worst one.
            order = np.argsort(errs, kind="stable")[::-1]
            share = 0.5 * tol / n
            k = int(np.count_nonzero(errs > share))
            k = max(1, min(k, _MAX_BATCH, spec.max_subdivisions - n))
            pick = order[:k]
            mids = 0.5 * (los[pick] + his[pick])
            keep = np.ones(n, dtype=bool)
            keep[pick] = False
            split.append((i, np.concatenate([los[pick], mids]), np.concatenate([mids, his[pick]]), keep))
        if not split:
            return outcomes
        for (i, new_los, new_his, keep), (new_vals, new_errs) in zip(split, _round(f, split)):
            los, his, vals, errs = states[i]
            states[i] = (
                np.concatenate([los[keep], new_los]),
                np.concatenate([his[keep], new_his]),
                np.concatenate([vals[keep], new_vals]),
                np.concatenate([errs[keep], new_errs]),
            )
        live = [entry[0] for entry in split]


# Half-line policy constants (declared decision rules, not tunables).
_DIVERGENCE_DOUBLINGS = 8  # monotone block growth over this many doublings
# The first round is seeded at u = 2^-j, j = 1..39: blocks 0..38 reach
# t = a + 2^39 - 1 (~5.5e11), and block 39 is the rest of the line.
_SEED_LEVELS = 40


def integrate_halfline(
    f: Callable,
    a: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    breakpoints: Sequence[float] = (),
) -> IntegralResult:
    """Adaptive integral of f over [a, +infinity): one adaptive integral of
    g(u) = f(a + (1-u)/u) / u^2 over (0, 1], seeded at the images u = 2^-j of
    the dyadic block edges t = a + 2^j - 1 and at the images of `breakpoints`.

    Raises Divergent when the first round's block estimates beyond the last
    breakpoint grow monotonically over 8 consecutive doublings (e.g. a
    non-decaying integrand); a block whose estimate overflows counts as
    growing.  Raises NonConvergence when the budget runs out or the tail
    needs t beyond the float64 range, and NonFinite, naming t, on any other
    non-finite integrand value.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError("lower limit must be finite")

    def g(u: np.ndarray) -> np.ndarray:
        # far blocks of a divergent integrand overflow; that is diagnosed
        # below, and so is a tail that needs t beyond float64's range
        with np.errstate(over="ignore"):
            t = a + (1.0 - u) / u
            if t.max() == math.inf:
                raise NonConvergence("tail not resolved within the float64 range of t")
            return np.asarray(f(t)) / u / u

    # Intervals in increasing t (decreasing u), so that a non-finite first
    # round is reported at its smallest t.
    seeds = [0.5**j for j in range(1, _SEED_LEVELS)]
    seeds += [1.0 / (1.0 + p - a) for p in breakpoints if p > a]
    edges = _clean_breakpoints(0.0, 1.0, seeds)[::-1]
    los = np.array(edges[1:])
    his = np.array(edges[:-1])
    vals, errs = _gk15_batch(g, los, his)

    # Divergence test on the first round's dyadic blocks.  Structural
    # transitions at declared breakpoints are expected (plateaus, seams of
    # piecewise profiles), so only blocks entirely beyond the last of them
    # count.
    guard_start = max([a] + [float(p) for p in breakpoints if p > a])
    block = np.minimum(-np.log2(his), _SEED_LEVELS - 1).astype(int)
    running = 0.0
    grow_run = 0
    prev = 0.0
    for k, est in enumerate(np.bincount(block, weights=vals).tolist()):
        running += est
        mag = abs(est)
        floor = max(spec.abs_tol, 0.25 * spec.rel_tol * abs(running))
        growing = mag == math.inf or (mag >= prev * (1.0 - 1e-12) and mag > floor)
        grow_run = grow_run + 1 if k > 0 and growing and a + 2.0**k - 1.0 >= guard_start else 0
        if grow_run >= _DIVERGENCE_DOUBLINGS:
            raise Divergent(
                f"tail blocks non-decreasing over {_DIVERGENCE_DOUBLINGS} doublings "
                f"(t up to {a + 2.0 ** (k + 1) - 1.0:.3g})"
            )
        prev = mag

    name = lambda u: f"t={a + (1.0 - u) / u!r}"
    (res,) = _refine(lambda x, parts: g(x), [(los, his, vals, errs)], spec, name)
    return res
