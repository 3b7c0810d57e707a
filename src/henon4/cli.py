"""Command-line runner: identity suites, threshold scans, blow-up
experiments, comparison checks, symmetry sweeps.

Commands (one table, `_COMMANDS`, maps each to its report stem, its one
function, which checks its inputs before it computes, and the keys it reads)

    verify-identities   energy identities, pointwise log bound margins,
                        weighted-norm embedding and series-bound properties
                        over the built-in corpus; --alpha sets the gamma =
                        alpha + 4 of the log-form energy identity (refused
                        above about 3.2e205)
    threshold-scan      per-alpha table: sharp threshold, series bound and
                        the largest corpus value of the functional
    moser-blowup        threshold-sharpness scan along an epsilon ladder
    talenti-check       rearrangement/comparison oracle on seeded profiles
    symmetry-sweep      translated-bump versus radial-search sweep report

Every flag but --config is a config-file key (one table, `_FLAGS`).

Exit codes: 0 success, 2 invalid configuration (nothing is computed or
written), 3 numerical failure (a verdict or invariant contradicts the
expected regime).  Outputs are written once, after all computation, and are
byte-stable for a fixed configuration and seed: CSV uses '.' decimals and 17
significant digits, JSON is emitted with sorted keys.

sigma accepts symbolic tokens: "32pi2" (or any "<x>pi2"), "sigma_alpha",
"<x>*sigma_alpha" resolved against the given alpha, or a plain number.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .errors import DomainError, Henon4Error, as_float, as_index
from .logtransform import log_energy, sqrt_transform_energy, to_log_profile
from .moser import blowup_scan, check_scan
from .profiles import (
    BoundaryKind,
    FunctionalParams,
    _check_alpha,
    corpus_names,
    corpus_profile,
    embedding_bound,
    laplacian_l2_sq_batch,
    pointwise_log_bound_margin,
    scale_to_unit,
    series_upper_bound,
    sigma_alpha,
    weighted_functional_batch,
    weighted_lp_norm_p_batch,
)
from .quadrature import QuadratureSpec
from .rearrangement import seeded_comparison_profiles, talenti_comparison_check
from .symmetry import BumpSpec, check_sweep, crossover_detect

__all__ = ["RunConfig", "ConfigError", "build_config", "run", "emit", "main"]


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _refusing():
    """Turn what the library raises on an input into ConfigError: exit 2,
    with nothing computed or written."""
    try:
        yield
    except (Henon4Error, ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """One run's settings; an unknown command or format is a ConfigError."""

    command: str
    params: dict = field(default_factory=dict)
    quadrature: QuadratureSpec = QuadratureSpec()
    out_dir: Path = field(default_factory=lambda: Path(os.environ.get("HENON4_OUT_DIR", "out")))
    fmt: str = "both"  # csv | json | both

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.fmt not in _FLAGS["format"]["choices"]:
            raise ConfigError(f"unknown format {self.fmt!r}")


@dataclass(frozen=True)
class TableReport:
    """The one report format: CSV is the header and the rows; JSON is the
    meta with the rows as header-keyed objects."""

    meta: dict
    header: tuple
    rows: tuple


def _fmt_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def emit(report: TableReport, fmt: str, path: Path) -> None:
    """Write a report to path; byte-stable for identical inputs."""
    if fmt == "csv":
        lines = [",".join(report.header)]
        lines += [",".join(_fmt_cell(c) for c in row) for row in report.rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        doc = {**report.meta, "rows": [dict(zip(report.header, row)) for row in report.rows]}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def resolve_sigma(token: str, alpha: float) -> float:
    """Resolve a sigma token ("32pi2", "0.8*sigma_alpha", number) at a valid alpha to a value."""
    _check_alpha(alpha)
    tok = token.strip().lower()
    factor = 1.0
    try:
        if "*" in tok:
            head, tok = tok.split("*", 1)
            factor = float(head)
        if tok == "sigma_alpha":
            return factor * sigma_alpha(alpha)
        if tok.endswith("pi2"):
            return factor * float(tok[:-3]) * math.pi**2
        return factor * float(tok)
    except ValueError as exc:
        raise ConfigError(f"bad sigma token {token!r}") from exc


def parse_epsilons(token: str) -> list:
    """Parse "start:end:decade" / "start:end:<k>decade" ladders or comma lists (`check_scan` checks them)."""
    tok = token.strip()
    if ":" in tok:
        parts = tok.split(":")
        if len(parts) != 3:
            raise ConfigError(f"epsilon ladder must be start:end:mode, got {token!r}")
        start, end, mode = float(parts[0]), float(parts[1]), parts[2].strip().lower()
        if not (0.0 < end < start < math.inf):
            raise ConfigError("epsilon ladder needs 0 < end < start < inf")
        if mode == "decade":
            k = 1
        elif mode.endswith("decade") and mode[:-6].isdigit():
            k = int(mode[:-6])
            if k < 1:
                raise ConfigError("decade step must be >= 1")
        else:
            raise ConfigError(f"unknown epsilon step mode {mode!r}")
        out = []
        e = start
        while e > end * (1.0 - 1e-12):
            out.append(e)
            e *= 10.0 ** (-k)
        return out
    return [float(x) for x in tok.split(",") if x.strip()]


def parse_alphas(token: str) -> list:
    try:
        out = [float(x) for x in token.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad alphas list {token!r}") from exc
    if not out:
        raise ConfigError("empty alphas list")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError("alphas must be strictly increasing")
    return out


# Each config key and the argparse kwargs of its flag, --<key with - for _>.
_FLAGS = {
    "alpha": {"type": float},
    "sigma": {},
    "beta": {"type": float},
    "m": {"type": int},
    "epsilons": {},
    "alphas": {},
    "bump": {},
    "bc": {"choices": [kind.value for kind in BoundaryKind]},
    "seed": {"type": int},
    "count": {"type": int},
    "out_dir": {},
    "format": {"choices": ["csv", "json", "both"]},
    "rel_tol": {"type": float},
    "max_subdiv": {"type": int},
}


def build_config(argv: Sequence[str]) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="henon4",
        description="weighted exponential functionals on the 4-ball: "
        "verification suites and experiments",
    )
    parser.add_argument("command", choices=_COMMANDS)
    for key, kwargs in _FLAGS.items():
        parser.add_argument("--" + key.replace("_", "-"), **kwargs)
    parser.add_argument("--config")
    ns = parser.parse_args(argv)

    params: dict = {}
    if ns.config is not None:
        try:
            loaded = json.loads(Path(ns.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(_FLAGS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        params.update(loaded)
    # a flag wins over the config file
    params.update((key, getattr(ns, key)) for key in _FLAGS if getattr(ns, key) is not None)

    rel_tol = params.pop("rel_tol", None)
    max_subdiv = params.pop("max_subdiv", None)
    out_dir = params.pop("out_dir", None)
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
    # RunConfig holds the defaults of the settings not given
    settings = {"out_dir": Path(out_dir)} if out_dir else {}
    if "format" in params:
        settings["fmt"] = params.pop("format")
    given = {}  # QuadratureSpec holds the defaults of what is not given
    with _refusing():
        if rel_tol is not None:
            given["rel_tol"] = as_float(rel_tol, "rel_tol")
        if max_subdiv is not None:
            given["max_subdivisions"] = max_subdiv
        quadrature = QuadratureSpec(**given)

    return RunConfig(command=ns.command, params=params, quadrature=quadrature, **settings)


# ---------------------------------------------------------------------------
# commands: each builds its inputs from the raw params, inside `_refusing`,
# into library objects whose checks hold the preconditions, before it
# computes.  Its function writes each default but the bump's (`BumpSpec`'s);
# talenti-check's count and seed repeat `seeded_comparison_profiles`'s, as
# its report names them.
# ---------------------------------------------------------------------------


def _verify_identities(spec: QuadratureSpec, p: dict):
    with _refusing():
        alpha = as_float(p.get("alpha", 16.0), "alpha")
        _check_alpha(alpha)
        profiles = [corpus_profile(name) for name in corpus_names()]
        # the log form at the paper's gamma = alpha + 4: in s = t/gamma its
        # integrand is the same at every gamma, so one gamma checks it
        log_profiles = [to_log_profile(u, alpha + 4.0) for u in profiles]
    rows = []
    failures = 0
    names = corpus_names()
    energies = laplacian_l2_sq_batch(profiles, spec)
    units = [scale_to_unit(u, energy) for u, energy in zip(profiles, energies)]

    for name, u, radial, wp in zip(names, profiles, energies, log_profiles):
        forms = (sqrt_transform_energy(u, spec), log_energy(wp, spec))
        worst = max(abs(form - radial) / radial for form in forms)
        ok = worst <= 1e-8
        failures += not ok
        rows.append(("energy-identity", name, worst, ok))

    for name, u, energy in zip(names, profiles, energies):
        margin = pointwise_log_bound_margin(u, energy)
        ok = margin <= 1.0 + 1e-9
        failures += not ok
        rows.append(("log-bound-margin", name, margin, ok))

    # each block integrates all of its profiles in lockstep
    grid = [(pexp, a) for pexp in (2.0, 4.0, 6.0) for a in (0.0, 1.0, 4.0, 16.0)]
    norms = weighted_lp_norm_p_batch([(u, pexp, a) for u in profiles for pexp, a in grid], spec)
    for k, (name, radial) in enumerate(zip(names, energies)):
        lap = math.sqrt(radial)
        worst = 0.0
        for (pexp, a), lhs in zip(grid, norms[k * len(grid) :]):
            rhs = embedding_bound(pexp, a, lap)
            worst = max(worst, lhs / rhs if rhs > 0 else 0.0)
        ok = worst <= 1.0 + 1e-8
        failures += not ok
        rows.append(("embedding-bound", name, worst, ok))

    grid = [FunctionalParams(a, 0.9 * sigma_alpha(a), m) for a in (0.0, 1.0, 4.0, 16.0) for m in (None, 0, 1, 2)]
    values = weighted_functional_batch([(u, params) for u in units for params in grid], spec)
    for k, name in enumerate(names):
        worst = 0.0
        for params, val in zip(grid, values[k * len(grid) :]):
            worst = max(worst, val / series_upper_bound(params))
        ok = worst <= 1.0 + 1e-8
        failures += not ok
        rows.append(("series-bound", name, worst, ok))

    for kind, name, val, ok in rows:
        print(f"[{'PASS' if ok else 'FAIL'}] {kind:18s} {name:22s} {val:.6g}")
    report = TableReport(
        meta={"suite": "verify-identities", "alpha": alpha},
        header=("check", "profile", "worst_ratio", "ok"),
        rows=tuple(rows),
    )
    return report, (0 if failures == 0 else 3), f"{failures} failure(s)"


def _threshold_scan(spec: QuadratureSpec, p: dict):
    with _refusing():
        sigma_token = str(p.get("sigma", "0.9*sigma_alpha"))
        alphas = parse_alphas(str(p.get("alphas", "0,1,4,16")))
        grid = [FunctionalParams(a, resolve_sigma(sigma_token, a)) for a in alphas]
        bounds = [series_upper_bound(q) for q in grid]
    rows = []
    failures = 0
    profiles = [corpus_profile(name) for name in corpus_names()]
    units = [scale_to_unit(u, energy) for u, energy in zip(profiles, laplacian_l2_sq_batch(profiles, spec))]
    for params, bound in zip(grid, bounds):
        # one row's corpus in lockstep: a failing row still prints the rows before it
        worst = 0.0
        for val in weighted_functional_batch([(u, params) for u in units], spec):
            worst = max(worst, val)
        ok = worst <= bound * (1.0 + 1e-8)
        failures += not ok
        rows.append((params.alpha, sigma_alpha(params.alpha), bound, worst))
        print(
            f"[{'PASS' if ok else 'FAIL'}] alpha={params.alpha:g} "
            f"sigma_alpha={sigma_alpha(params.alpha):.6g} bound={bound:.6g} max_corpus={worst:.6g}"
        )
    report = TableReport(
        meta={"suite": "threshold-scan", "sigma": sigma_token},
        header=("alpha", "sigma_alpha", "series_bound", "max_corpus_value"),
        rows=tuple(rows),
    )
    return report, (0 if failures == 0 else 3), f"{failures} violation(s)"


def _moser_blowup(spec: QuadratureSpec, p: dict):
    with _refusing():
        alpha = as_float(p.get("alpha", 0.0), "alpha")
        beta = as_float(p.get("beta", 1.2), "beta")
        if (bc := p.get("bc", "navier")) not in _FLAGS["bc"]["choices"]:
            raise DomainError(f"bc must be one of {_FLAGS['bc']['choices']}, got {bc!r}")
        epsilons = parse_epsilons(str(p.get("epsilons", "1e-2:1e-10:decade")))
        check_scan(alpha, beta, epsilons, p.get("m"), BoundaryKind(bc))
    ex = blowup_scan(alpha, beta, epsilons, m=p.get("m"), spec=spec, bc=BoundaryKind(bc))
    rows = tuple(zip(epsilons, ex.norm_sqs, ex.values, ex.log_values, ex.lower_bound_exponents))
    for row in rows:
        print(
            f"eps={row[0]:<8g} norm_sq={row[1]:.8f} value={row[2]:.6g} "
            f"log={row[3]:+.4f} floor={row[4]:+.4f}"
        )
    print(f"verdict: {ex.verdict}")
    report = TableReport(
        meta={
            "suite": "moser-blowup",
            "alpha": alpha,
            "beta": beta,
            "bc": bc,
            "m": p.get("m"),
            "verdict": ex.verdict,
        },
        header=("epsilon", "norm_sq", "value", "log_value", "lower_bound_exponent"),
        rows=rows,
    )
    if beta > 1.0 and ex.verdict != "Diverging":
        return report, 3, f"expected Diverging at beta={beta}, got {ex.verdict}"
    if beta < 1.0 and ex.verdict != "Bounded":
        return report, 3, f"expected Bounded at beta={beta}, got {ex.verdict}"
    return report, 0, ex.verdict


def _talenti_check(spec: QuadratureSpec, p: dict):
    with _refusing():
        count, seed = p.get("count", 10), p.get("seed", 20240807)
        profiles = seeded_comparison_profiles(count, seed)
    rows = []
    failures = 0
    for v, rep in zip(profiles, talenti_comparison_check(profiles, spec)):
        failures += not rep.holds
        rows.append(
            (v.description, rep.min_gap, rep.l2_rel_err, rep.v_sq_integral, rep.u_sq_integral, rep.holds)
        )
        print(
            f"[{'PASS' if rep.holds else 'FAIL'}] {v.description:20s} min_gap={rep.min_gap:+.3e} "
            f"l2_rel={rep.l2_rel_err:.3e}"
        )
    report = TableReport(
        meta={"suite": "talenti-check", "count": count, "seed": seed},
        header=("profile", "min_gap", "l2_rel_err", "v_sq", "u_sq", "ok"),
        rows=tuple(rows),
    )
    return report, (0 if failures == 0 else 3), f"{failures} failure(s)"


def _symmetry_sweep(spec: QuadratureSpec, p: dict):
    with _refusing():
        # --seed is checked as on talenti-check, but the sweep is deterministic and ignores it
        as_index(p.get("seed", 0), "seed", least=0)
        sigma = resolve_sigma(str(p.get("sigma", "32pi2")), as_float(p.get("alpha", 0.0), "alpha"))
        params = FunctionalParams(0.0, sigma, p.get("m", 1))
        alphas = parse_alphas(str(p.get("alphas", "16,32,64,128,256,512")))
        bump = BumpSpec(p["bump"]) if "bump" in p else BumpSpec()
        check_sweep(params, alphas)
    report = crossover_detect(params, alphas, bump, spec)
    for r in report.rows:
        print(
            f"alpha={r.alpha:<6g} bump={r.bump_exact:.6e} bound={r.bump_paper_bound:.6e} "
            f"radial={r.radial_max:.6e} margin={r.crossover_margin():+.3f} [{r.radial_profile_id}]"
        )
    slopes = report.fitted_slopes
    print(f"fitted slopes: bump={slopes['bump']:.4f} radial={slopes['radial']:.4f}")
    star = report.alpha_star if report.alpha_star is not None else "not-found-on-grid"
    print(f"alpha_star: {star}")
    table = TableReport(
        meta={
            "sigma": params.sigma,
            "m": params.m,
            # the schema is fixed and tested: the fit residuals stay in-process
            "fitted_slopes": {"bump": slopes["bump"], "radial": slopes["radial"]},
            "alpha_star": star,
        },
        header=("alpha", "bump_exact", "bump_paper_bound", "radial_max", "radial_profile_id"),
        rows=tuple(
            (r.alpha, r.bump_exact, r.bump_paper_bound, r.radial_max, r.radial_profile_id)
            for r in report.rows
        ),
    )
    return table, 0, f"alpha_star={star}"


# Each command: the stem of its reports, <stem>.csv and <stem>.json, its function and the keys it reads.
_COMMANDS = {
    "verify-identities": ("verify_identities", _verify_identities, {"alpha"}),
    "threshold-scan": ("threshold_scan", _threshold_scan, {"sigma", "alphas"}),
    "moser-blowup": ("moser_blowup", _moser_blowup, {"alpha", "beta", "bc", "epsilons", "m"}),
    "talenti-check": ("talenti_check", _talenti_check, {"count", "seed"}),
    "symmetry-sweep": ("sweep_report", _symmetry_sweep, {"alpha", "sigma", "m", "alphas", "bump", "seed"}),
}


def run(config: RunConfig) -> int:
    """Execute the configured command; write outputs; return the exit code.

    Raises ConfigError, before computing or writing anything, when the
    command does not read a given key or the library rejects its inputs.
    """
    t0 = time.time()
    stem, body, keys = _COMMANDS[config.command]
    if unread := sorted(set(config.params) - keys):
        raise ConfigError(f"{config.command} does not read {unread}; it reads {sorted(keys)}")
    report, code, note = body(config.quadrature, config.params)

    wrote = []
    for fmt in ("csv", "json"):
        if config.fmt in (fmt, "both"):
            path = config.out_dir / f"{stem}.{fmt}"
            emit(report, fmt, path)
            wrote.append(str(path))
    print(f"{config.command}: {note} ({time.time() - t0:.1f}s) -> {', '.join(wrote)}")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return run(build_config(argv))
    except SystemExit as exc:  # argparse: 2 on a bad flag, 0 after --help
        return exc.code
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except Henon4Error as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except Exception as exc:  # contract: never a bare traceback on bad input
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
