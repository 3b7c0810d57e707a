"""Output check: compare an operation's outcome with its stored reference.

Numbers agree when they are within the quadrature ``rel_tol`` of each other,
which is what ROADMAP.md means by "outputs did not change".  Fields that are
errors or logarithms of O(1) quantities (an identity's relative error, the
Talenti gaps, ``log_value``) carry that accuracy in absolute terms, so they
get an absolute allowance of 4 * rel_tol: two integrals, each within rel_tol,
on each of two commits.  Verdicts, ``alpha_star``, PASS/``ok`` flags, integers
and every other string compare exactly, except ``radial_profile_id``, whose
parametric family (``pow``, ``ring``, ...) compares exactly and whose
fitted parameters are not compared.
"""

from __future__ import annotations

import math
import re

REL_TOL = 1e-10  # the CLI's default --rel-tol, used by every operation
_ERROR_FIELDS = {"min_gap", "l2_rel_err", "log_value"}
_EXACT_FIELDS = {"alpha_star", "verdict", "ok"}
_FAMILY = re.compile(r"^(?:[^(]*\*\()*([A-Za-z0-9_]+)")


def profile_family(profile_id: str) -> str:
    """'0.0570108*(pow:1.97396)' -> 'pow'."""
    match = _FAMILY.match(profile_id)
    return match.group(1) if match else profile_id


def _atol(key: str, row: dict) -> float:
    if key in _ERROR_FIELDS or (key == "worst_ratio" and row.get("check") == "energy-identity"):
        return 4.0 * REL_TOL
    return 0.0


def _numbers_agree(a: float, b: float, atol: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + atol


def _compare(ref, got, where: str, key: str, row: dict, out: list) -> None:
    if key == "radial_profile_id" and isinstance(ref, str) and isinstance(got, str):
        if profile_family(ref) != profile_family(got):
            out.append(f"{where}: family {profile_family(got)!r} != {profile_family(ref)!r}")
        return
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            out.append(f"{where}: keys {sorted(got)} != {sorted(ref)}")
            return
        for k in ref:
            _compare(ref[k], got[k], f"{where}.{k}", k, ref, out)
        return
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{where}: {len(got)} items != {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(r, g, f"{where}[{i}]", key, row, out)
        return
    inexact = (
        isinstance(ref, float)
        and isinstance(got, (int, float))
        and not isinstance(got, bool)
        and key not in _EXACT_FIELDS
    )
    if inexact:
        if not _numbers_agree(float(ref), float(got), _atol(key, row)):
            out.append(f"{where}: {got!r} != {ref!r}")
    elif type(ref) is not type(got) or ref != got:
        out.append(f"{where}: {got!r} != {ref!r}")


def mismatches(ref: dict, got: dict) -> list:
    """Differences between two outcomes ({"exit", "reports"} for a CLI
    operation, {"exit", "value", "error"} for a library call)."""
    out: list = []
    _compare(ref, got, "outcome", "", {}, out)
    return out
