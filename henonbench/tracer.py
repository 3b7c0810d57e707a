"""Span tracer that instruments henon4 from outside the package.

`Tracer.install` replaces every public function of the seven henon4 modules
(each module's ``__all__``) at every module binding that holds it, so calls
made through ``from .quadrature import integrate`` style imports are seen
too.  Each wrapped call records a span ``[name, start, end, parent]`` in
memory.  The two quadrature drivers also wrap the integrand they receive:
each integrand call is one driver iteration (one GK15 batch) and its argument
size is the number of abscissae, so the private kernel is never touched.
`Tracer.restore` puts every original binding back.

`summarize` turns the span tree and the counters into the per-layer metrics
that BENCHMARK.json lists.  Self times come from the tree: a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import time
import types

LAYERS = ("quadrature", "profiles", "logtransform", "moser", "rearrangement", "symmetry", "cli")
COMMANDS = ("verify-identities", "threshold-scan", "moser-blowup", "talenti-check", "symmetry-sweep")
DRIVERS = ("quadrature.integrate", "quadrature.integrate_halfline")
INTEGRAND = "integrand"

# Metrics that are counts: they must repeat exactly between two traced passes.
COUNT_METRICS = (
    "quadrature.integrals",
    "quadrature.halfline_integrals",
    "quadrature.driver_iters",
    "quadrature.nodes",
    "quadrature.errors",
    "profiles.weighted_functional.calls",
    "profiles.laplacian_l2_sq.calls",
    "profiles.exp_minus_taylor.calls",
    "profiles.exp_minus_taylor.points",
    "symmetry.radial_max_search.calls",
    "symmetry.objective_evals",
    "moser.blowup_scan.calls",
    "rearrangement.talenti_comparison_check.calls",
    "rearrangement.samples",
    "cli.bytes_written",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts = dict.fromkeys(
            ("integrals", "halfline_integrals", "errors", "driver_iters", "nodes", "points", "samples", "bytes_written"),
            0,
        )
        self.max_err_ratio = 0.0
        self._stack: list = []
        self._saved: list = []  # (module, attribute, original)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> int:
        """Wrap the public functions of `modules` (short name -> module) at
        every binding in `modules`; returns the number of bindings replaced."""
        wrappers = {}
        for short in LAYERS:
            mod = modules[short]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{short}.{attr}")
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        return len(self._saved)

    def restore(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        if name in DRIVERS:
            return self._wrap_driver(fn, name)
        sig = inspect.signature(fn)
        counts = self.counts

        if name == "profiles.exp_minus_taylor":

            def before(args, kwargs):
                counts["points"] += _size(sig.bind(*args, **kwargs).arguments["z"])

        elif name == "rearrangement.talenti_comparison_check":

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts["samples"] += int(bound.arguments["grid_size"])

        else:
            before = None

        after = None
        if name == "cli.emit":

            def after(args, kwargs):
                counts["bytes_written"] += os.path.getsize(sig.bind(*args, **kwargs).arguments["path"])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    def _wrap_driver(self, fn, name: str):
        sig = inspect.signature(fn)
        halfline = name.endswith("halfline")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if parent >= 0 and self.spans[parent][0] in DRIVERS:
                # a block or mapped tail inside integrate_halfline: its
                # integrand is already wrapped and it is not a new integral
                rec = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(rec)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            bound.arguments["f"] = self._wrap_integrand(bound.arguments["f"])
            self.counts["integrals"] += 1
            self.counts["halfline_integrals"] += halfline
            rec = self._open(name)
            try:
                res = fn(*bound.args, **bound.kwargs)
            except Exception:
                self.counts["errors"] += 1
                raise
            finally:
                self._close(rec)
            spec = bound.arguments["spec"]
            tol = max(spec.abs_tol, spec.rel_tol * abs(res.value))
            self.max_err_ratio = max(self.max_err_ratio, res.error_estimate / tol)
            return res

        return traced

    def _wrap_integrand(self, f):
        counts = self.counts

        def traced_integrand(x, *rest):
            counts["driver_iters"] += 1
            counts["nodes"] += _size(x)
            rec = self._open(INTEGRAND)
            try:
                return f(x, *rest)
            finally:
                self._close(rec)

        return traced_integrand


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    spans = tracer.spans
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    calls: dict = {}
    busy: dict = {}  # outermost spans of one name
    layer_busy = dict.fromkeys(LAYERS + (INTEGRAND,), 0.0)
    layer_self = dict.fromkeys(LAYERS + (INTEGRAND,), 0.0)
    objective_evals = search_energies = 0
    moser_integrals = moser_iters = 0

    for i, (name, _start, _end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
        calls[name] = calls.get(name, 0) + 1
        same_name = same_layer = False
        ancestors = set()
        p = parent
        while p >= 0:
            pname = spans[p][0]
            same_name |= pname == name
            same_layer |= layer_of[p] == layer_of[i]
            ancestors.add(pname)
            p = spans[p][3]
        if not same_name:
            busy[name] = busy.get(name, 0.0) + dur[i]
        if not same_layer:
            layer_busy[layer_of[i]] += dur[i]
        if "symmetry.radial_max_search" in ancestors:
            objective_evals += name == "profiles.weighted_functional"
            search_energies += name == "profiles.laplacian_l2_sq"
        if "moser.blowup_scan" in ancestors:
            moser_iters += name == INTEGRAND
            moser_integrals += name in DRIVERS and not (parent >= 0 and spans[parent][0] in DRIVERS)

    name_self: dict = {}
    for i, layer in enumerate(layer_of):
        layer_self[layer] += dur[i] - child[i]
        name = spans[i][0]
        name_self[name] = name_self.get(name, 0.0) + dur[i] - child[i]

    c = tracer.counts
    talenti = "rearrangement.talenti_comparison_check"
    m = {
        "quadrature.integrals": c["integrals"],
        "quadrature.halfline_integrals": c["halfline_integrals"],
        "quadrature.driver_iters": c["driver_iters"],
        "quadrature.nodes": c["nodes"],
        "quadrature.iters_per_integral": _ratio(c["driver_iters"], c["integrals"]),
        "quadrature.nodes_per_iter": _ratio(c["nodes"], c["driver_iters"]),
        "quadrature.busy_s": layer_busy["quadrature"],
        "quadrature.self_s": layer_self["quadrature"],
        "quadrature.nodes_per_s": _ratio(c["nodes"], layer_busy["quadrature"]),
        "quadrature.errors": c["errors"],
        "quadrature.ok_frac": _ratio(c["integrals"] - c["errors"], c["integrals"]),
        "quadrature.max_err_ratio": tracer.max_err_ratio,
        "integrand.busy_s": layer_busy[INTEGRAND],
        "symmetry.self_s": layer_self["symmetry"],
        "symmetry.objective_evals": objective_evals,
        "symmetry.energy_per_objective": _ratio(search_energies, objective_evals),
        "moser.iters_per_integral": _ratio(moser_iters, moser_integrals),
        f"{talenti}.self_s": name_self.get(talenti, 0.0),
        "rearrangement.samples": c["samples"],
        "rearrangement.samples_per_s": _ratio(c["samples"], busy.get(talenti, 0.0)),
        "profiles.exp_minus_taylor.points": c["points"],
        "cli.bytes_written": c["bytes_written"],
    }
    for fn in (
        "profiles.weighted_functional",
        "profiles.laplacian_l2_sq",
        "profiles.exp_minus_taylor",
        "symmetry.radial_max_search",
        "moser.blowup_scan",
        "rearrangement.talenti_comparison_check",
    ):
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.busy_s"] = busy.get(fn, 0.0)
    for fn in (
        "symmetry.translated_bump_value",
        "logtransform.log_energy",
        "logtransform.sqrt_transform_energy",
        "logtransform.marshall_moser_integral",
        "cli.emit",
    ):
        m[f"{fn}.busy_s"] = busy.get(fn, 0.0)
    for command in COMMANDS:
        m[f"cli.{command}.busy_s"] = busy.get(f"cli.{command}", 0.0)
    return m


def merge_passes(per_pass: list) -> tuple:
    """Combine the metrics of several traced passes: counts must agree
    exactly; every other metric is the median over the passes.  Returns
    (metrics, names of counts that differed)."""
    differing = [k for k in COUNT_METRICS if len({p[k] for p in per_pass}) > 1]
    merged = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    for k in COUNT_METRICS:
        merged[k] = per_pass[0][k]
    return merged, differing


def dump_spans(tracer: Tracer) -> dict:
    """Spans as written to disk: times in seconds from the first span."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    return {
        "fields": ["name", "start_s", "end_s", "parent"],
        "spans": [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in tracer.spans],
    }
