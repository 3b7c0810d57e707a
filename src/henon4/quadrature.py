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
costs about the numpy call overhead of one problem's round.  Failures come
in input order, as from a loop of `integrate`: once problem i fails, the
problems after it stop, `integrate_batch` issues the floating-point warnings
that problems 0..i gave (deferred until then) and drops the others', and it
raises problem i's failure.  A batch returns the bits of the loop on two
conditions, which the batch integrands of `profiles` keep:
  - every parameter of one problem's integrand is a scalar, as in its lone
    form: a broadcast exponent could take a different `pow` path;
  - what one call computes for the joined abscissae of several problems
    does not depend on the others' values, as for `exp_minus_taylor`, whose
    series adds terms that change no bit (its docstring).
The GK15 sums of one interval do not depend on the others in the batch.
"""

from __future__ import annotations

import math
import sys
import warnings
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
    vals, errs = _gk15_batch(f, los, his)
    return _only(_refine(_alone(f), [(los, his, vals, errs)], spec, _name_x))


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
    IntegralResult without `then`).  Raises the failure of the first problem
    that fails, in input order, as the loop would: problems after it stop,
    and the warnings of their integrands are dropped.
    """
    states, split, deferred = [], [], []
    evaluate = _joined(f, deferred)
    for i, problem in enumerate(problems):
        deferred.append(_Deferred())
        try:
            los, his = _partition(*problem)
        except Exception as exc:  # problem i fails before any round
            states.append(exc)
            break
        states.append(None)
        split.append((i, los, his))
    for (i, los, his), res in zip(split, evaluate(split)):
        states[i] = res if isinstance(res, BaseException) else (los, his, *res)
    outcomes, bad = _refine(evaluate, states, spec, _name_x)
    if then is not None:
        for i in range(len(states) if bad is None else bad):
            try:
                outcomes[i] = then(i, outcomes[i])
            except Exception as exc:
                outcomes[i], bad = exc, i
                break
    for caught in deferred[: None if bad is None else bad + 1]:
        caught.issue()
    if bad is not None:
        raise outcomes[bad]
    return outcomes


def _only(refined):
    outcomes, bad = refined
    if bad is not None:
        raise outcomes[bad]
    return outcomes[0]


def _alone(f: Callable):
    """The GK15 round of a single problem: its integrand's warnings and
    exceptions surface as they happen."""
    return lambda split: [_gk15_batch(f, split[0][1], split[0][2])]


def _joined(f: Callable, deferred: list):
    """The GK15 round of a batch: one `_gk15_batch` call over the new
    intervals of every problem in `split`, a list of (i, los, his, ...).
    Returns per entry (vals, errs), or the exception problem i's integrand
    raised.  A round whose integrand warns or raises is evaluated again one
    problem at a time, so that each warning goes to `deferred[i]` of the
    problem that gave it and each exception fails only that problem."""

    def evaluate(split):
        if not split:
            return []
        los = np.concatenate([entry[1] for entry in split])
        his = np.concatenate([entry[2] for entry in split])
        parts, bounds, start = [], [], 0
        for entry in split:
            end = start + entry[1].size
            parts.append((entry[0], slice(_XGK.size * start, _XGK.size * end)))
            bounds.append((start, end))
            start = end
        caught = _Deferred()
        try:
            with caught.trap():
                vals, errs = _gk15_batch(lambda x: f(x, parts), los, his)
            if not caught.kept:
                return [(vals[s:e], errs[s:e]) for s, e in bounds]
        except Exception:
            pass  # the problem that raised is found below
        return [_isolated(f, entry[0], entry[1], entry[2], deferred[entry[0]]) for entry in split]

    return evaluate


def _isolated(f: Callable, i: int, los, his, caught: "_Deferred"):
    try:
        with caught.trap():
            return _gk15_batch(lambda x: f(x, ((i, slice(None)),)), los, his)
    except Exception as exc:
        return exc


class _Deferred:
    """numpy's floating-point warnings, kept to be issued later, each as
    numpy would have issued it: an errcall object of numpy's 'log' mode,
    which hands it the text of each warning."""

    def __init__(self) -> None:
        self.kept: list = []

    def write(self, text: str) -> None:
        frame = sys._getframe(1)  # the caller of the ufunc that warned
        message = text.removeprefix("Warning: ").rstrip("\n")
        self.kept.append((message, frame.f_code.co_filename, frame.f_lineno, frame.f_globals))

    def trap(self):
        """Keep, instead of issuing, the warnings that numpy would issue now."""
        modes = {kind: "log" for kind, mode in np.geterr().items() if mode == "warn"}
        return np.errstate(call=self, **modes)

    def issue(self) -> None:
        for message, filename, lineno, module_globals in self.kept:
            registry = module_globals.setdefault("__warningregistry__", {})
            module = module_globals.get("__name__", "<string>")
            warnings.warn_explicit(message, RuntimeWarning, filename, lineno, module, registry, module_globals)


def _refine(evaluate: Callable, states: list, spec: QuadratureSpec, name: Callable):
    """The one bisection loop of every driver, QUADPACK qag's, over
    independent problems in lockstep.

    `states[i]` is problem i's first partition and its estimates (los, his,
    vals, errs), or the exception that already ended it.  Each round, every
    live problem in input order meets its own test error <= rel_tol*|value|,
    or splits its own intervals, and `evaluate(split)` runs one GK15 round on
    the new halves of all of them; `name` renders an abscissa for the
    NonFinite message.  Once a problem fails, the problems after it
    stop, as a loop would never have reached them.  Returns (outcomes, bad):
    the outcome of each problem that ran to its end, and the index of the
    failed problem, whose outcome is its exception, or None.
    """
    outcomes: list = [None] * len(states)
    bad = None
    live = []
    for i, state in enumerate(states):
        if isinstance(state, BaseException):
            outcomes[i], bad = state, i
            break
        live.append(i)
    while live:
        split = []
        for i in live:
            if bad is not None and i > bad:
                break
            los, his, vals, errs = states[i]
            total = float(vals.sum())
            err_total = float(errs.sum())
            n = los.size
            if not (math.isfinite(total) and math.isfinite(err_total)):
                j = int(np.argmin(np.isfinite(vals) & np.isfinite(errs)))
                at = name(0.5 * float(los[j] + his[j]))
                outcomes[i], bad = NonFinite(f"integrand non-finite near {at}"), i
                continue
            tol = max(spec.abs_tol, spec.rel_tol * abs(total))
            if err_total <= tol:
                outcomes[i] = IntegralResult(total, err_total, n)
                continue
            if n >= spec.max_subdivisions:
                message = f"error {err_total:.3e} > tol {tol:.3e} after {n} subdivisions"
                outcomes[i], bad = NonConvergence(message), i
                continue
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
            break
        live = []
        for (i, new_los, new_his, keep), res in zip(split, evaluate(split)):
            if isinstance(res, BaseException):
                outcomes[i], bad = res, i
                break
            los, his, vals, errs = states[i]
            new_vals, new_errs = res
            states[i] = (
                np.concatenate([los[keep], new_los]),
                np.concatenate([his[keep], new_his]),
                np.concatenate([vals[keep], new_vals]),
                np.concatenate([errs[keep], new_errs]),
            )
            live.append(i)
    return outcomes, bad


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
    return _only(_refine(_alone(g), [(los, his, vals, errs)], spec, name))
