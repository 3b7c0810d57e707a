"""Command-line runner: identity suites, threshold scans, blow-up
experiments, comparison checks, symmetry sweeps.

Commands (one table, `_COMMANDS`, maps each to its report stem and body)

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
from .moser import MoserParams, blowup_scan
from .profiles import (
    BoundaryKind,
    FunctionalParams,
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


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)
    quadrature: QuadratureSpec = QuadratureSpec()
    out_dir: Path = Path("out")
    fmt: str = "both"  # csv | json | both


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
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        lines = [",".join(report.header)]
        lines += [",".join(_fmt_cell(c) for c in row) for row in report.rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        doc = {**report.meta, "rows": [dict(zip(report.header, row)) for row in report.rows]}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def resolve_sigma(token: str, alpha: float) -> float:
    """Resolve a sigma token ("32pi2", "0.8*sigma_alpha", number) to a value."""
    tok = token.strip().lower()
    factor = 1.0
    if "*" in tok:
        head, tok = tok.split("*", 1)
        try:
            factor = float(head)
        except ValueError as exc:
            raise ConfigError(f"bad sigma factor in {token!r}") from exc
    if tok == "sigma_alpha":
        return factor * sigma_alpha(alpha)
    if tok.endswith("pi2"):
        try:
            base = float(tok[:-3])
        except ValueError as exc:
            raise ConfigError(f"bad sigma token {token!r}") from exc
        return factor * base * math.pi**2
    try:
        return factor * float(tok)
    except ValueError as exc:
        raise ConfigError(f"bad sigma token {token!r}") from exc


def parse_epsilons(token: str) -> list:
    """Parse "start:end:decade" / "start:end:<k>decade" ladders or comma lists."""
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
    out = [float(x) for x in tok.split(",") if x.strip()]
    if not out:
        raise ConfigError("empty epsilon list")
    if any(b >= a for a, b in zip(out, out[1:])):
        raise ConfigError("epsilons must be strictly decreasing")
    return out


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
    "bc": {"choices": ["navier", "dirichlet"]},
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
    out_dir = out_dir or os.environ.get("HENON4_OUT_DIR", "out")
    fmt = params.pop("format", "both")
    if fmt not in _FLAGS["format"]["choices"]:
        raise ConfigError(f"unknown format {fmt!r}")
    given = {}  # QuadratureSpec holds the defaults of what is not given
    try:
        if rel_tol is not None:
            given["rel_tol"] = as_float(rel_tol, "rel_tol")
        if max_subdiv is not None:
            given["max_subdivisions"] = max_subdiv
        quadrature = QuadratureSpec(**given)
    except (Henon4Error, ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        command=ns.command,
        params=params,
        quadrature=quadrature,
        out_dir=Path(out_dir),
        fmt=fmt,
    )


def _resolve(command: str, p: dict) -> dict:
    """The command body's arguments, built from the raw params into library
    objects whose constructors and checks hold the preconditions; every
    default is written here once.  `run` maps what they raise to ConfigError.
    """
    # alpha, sigma and m pass the library's rules whatever the command uses
    alpha = as_float(p.get("alpha", 0.0), "alpha")
    sigma = resolve_sigma(str(p["sigma"]), alpha) if "sigma" in p else 1.0
    FunctionalParams(alpha, sigma, p.get("m"))
    if command == "verify-identities":
        alpha = as_float(p.get("alpha", 16.0), "alpha")
        profiles = [corpus_profile(name) for name in corpus_names()]
        return {
            "alpha": alpha,
            "profiles": profiles,
            # the log form at the paper's gamma = alpha + 4: in s = t/gamma its
            # integrand is the same at every gamma, so one gamma checks it
            "log_profiles": [to_log_profile(u, alpha + 4.0) for u in profiles],
        }
    if command == "threshold-scan":
        token = str(p.get("sigma", "0.9*sigma_alpha"))
        alphas = parse_alphas(str(p.get("alphas", "0,1,4,16")))
        grid = [FunctionalParams(a, resolve_sigma(token, a)) for a in alphas]
        return {"sigma_token": token, "grid": grid, "bounds": [series_upper_bound(q, 1.0) for q in grid]}
    if command == "moser-blowup":
        beta = as_float(p.get("beta", 1.2), "beta")
        bc = BoundaryKind(p.get("bc", "navier"))
        eps = parse_epsilons(str(p.get("epsilons", "1e-2:1e-10:decade")))
        return {
            "params": FunctionalParams(alpha, beta * sigma_alpha(alpha), p.get("m")),
            "beta": beta,
            "bc": bc,
            "members": [MoserParams(e, bc) for e in eps],
        }
    if command == "talenti-check":
        count, seed = p.get("count", 10), p.get("seed", 20240807)
        return {"count": count, "seed": seed, "profiles": seeded_comparison_profiles(count, seed)}
    # --seed is checked as on talenti-check, but the sweep is deterministic and ignores it
    if as_index(p.get("seed", 0), "seed") < 0:
        raise DomainError("seed must be >= 0")
    sigma = resolve_sigma(str(p.get("sigma", "32pi2")), 0.0)
    params = FunctionalParams(0.0, sigma, p.get("m", 1))
    alphas = parse_alphas(str(p.get("alphas", "16,32,64,128,256,512")))
    bump = BumpSpec(p.get("bump", "poly4"))
    check_sweep(params, alphas)
    return {"params": params, "alphas": alphas, "bump": bump}


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------


def _print(line: str) -> None:
    sys.stdout.write(line + "\n")


def _verify_identities(spec: QuadratureSpec, alpha: float, profiles: list, log_profiles: list):
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
            worst = max(worst, val / series_upper_bound(params, 1.0))
        ok = worst <= 1.0 + 1e-8
        failures += not ok
        rows.append(("series-bound", name, worst, ok))

    for kind, name, val, ok in rows:
        _print(f"[{'PASS' if ok else 'FAIL'}] {kind:18s} {name:22s} {val:.6g}")
    report = TableReport(
        meta={"suite": "verify-identities", "alpha": alpha},
        header=("check", "profile", "worst_ratio", "ok"),
        rows=tuple(rows),
    )
    return report, (0 if failures == 0 else 3), f"{failures} failure(s)"


def _threshold_scan(spec: QuadratureSpec, sigma_token: str, grid: list, bounds: list):
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
        _print(
            f"[{'PASS' if ok else 'FAIL'}] alpha={params.alpha:g} "
            f"sigma_alpha={sigma_alpha(params.alpha):.6g} bound={bound:.6g} max_corpus={worst:.6g}"
        )
    report = TableReport(
        meta={"suite": "threshold-scan", "sigma": sigma_token},
        header=("alpha", "sigma_alpha", "series_bound", "max_corpus_value"),
        rows=tuple(rows),
    )
    return report, (0 if failures == 0 else 3), f"{failures} violation(s)"


def _moser_blowup(
    spec: QuadratureSpec,
    params: FunctionalParams,
    beta: float,
    bc: BoundaryKind,
    members: list,
):
    eps = [mp.epsilon for mp in members]
    ex = blowup_scan(params.alpha, beta, eps, m=params.m, spec=spec, bc=bc)
    rows = tuple(
        zip(ex.epsilons, ex.norm_sqs, ex.values, ex.log_values, ex.lower_bound_exponents)
    )
    for row in rows:
        _print(
            f"eps={row[0]:<8g} norm_sq={row[1]:.8f} value={row[2]:.6g} "
            f"log={row[3]:+.4f} floor={row[4]:+.4f}"
        )
    _print(f"verdict: {ex.verdict}")
    report = TableReport(
        meta={
            "suite": "moser-blowup",
            "alpha": params.alpha,
            "beta": beta,
            "bc": bc.value,
            "m": params.m,
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


def _talenti_check(spec: QuadratureSpec, count: int, seed: int, profiles: list):
    rows = []
    failures = 0
    for v, rep in zip(profiles, talenti_comparison_check(profiles, spec)):
        ok = rep.holds and rep.v_sq_integral <= rep.u_sq_integral + 1e-8
        failures += not ok
        rows.append(
            (v.description, rep.min_gap, rep.l2_rel_err, rep.v_sq_integral, rep.u_sq_integral, ok)
        )
        _print(
            f"[{'PASS' if ok else 'FAIL'}] {v.description:20s} min_gap={rep.min_gap:+.3e} "
            f"l2_rel={rep.l2_rel_err:.3e}"
        )
    report = TableReport(
        meta={"suite": "talenti-check", "count": count, "seed": seed},
        header=("profile", "min_gap", "l2_rel_err", "v_sq", "u_sq", "ok"),
        rows=tuple(rows),
    )
    return report, (0 if failures == 0 else 3), f"{failures} failure(s)"


def _symmetry_sweep(
    spec: QuadratureSpec,
    params: FunctionalParams,
    alphas: list,
    bump: BumpSpec,
):
    report = crossover_detect(params, alphas, bump, spec)
    for r in report.rows:
        _print(
            f"alpha={r.alpha:<6g} bump={r.bump_exact:.6e} bound={r.bump_paper_bound:.6e} "
            f"radial={r.radial_max:.6e} margin={r.crossover_margin():+.3f} [{r.radial_profile_id}]"
        )
    slopes = report.fitted_slopes
    _print(f"fitted slopes: bump={slopes['bump']:.4f} radial={slopes['radial']:.4f}")
    star = report.alpha_star if report.alpha_star is not None else "not-found-on-grid"
    _print(f"alpha_star: {star}")
    table = TableReport(
        meta={
            "sigma": report.sigma,
            "m": report.m,
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


# Each command: the stem of its reports, <stem>.csv and <stem>.json, and its body.
_COMMANDS = {
    "verify-identities": ("verify_identities", _verify_identities),
    "threshold-scan": ("threshold_scan", _threshold_scan),
    "moser-blowup": ("moser_blowup", _moser_blowup),
    "talenti-check": ("talenti_check", _talenti_check),
    "symmetry-sweep": ("sweep_report", _symmetry_sweep),
}


def run(config: RunConfig) -> int:
    """Execute the configured command; write outputs; return the exit code.

    Raises ConfigError, before computing or writing anything, when the
    library rejects the command's inputs.
    """
    t0 = time.time()
    stem, body = _COMMANDS[config.command]
    try:
        inputs = _resolve(config.command, config.params)
    except (Henon4Error, ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    report, code, note = body(config.quadrature, **inputs)

    wrote = []
    for fmt in ("csv", "json"):
        if config.fmt in (fmt, "both"):
            path = config.out_dir / f"{stem}.{fmt}"
            emit(report, fmt, path)
            wrote.append(str(path))
    _print(f"{config.command}: {note} ({time.time() - t0:.1f}s) -> {', '.join(wrote)}")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return run(build_config(argv))
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
