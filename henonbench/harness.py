"""Running operations: environment, fresh imports, one pass, outcomes.

Every pass starts from a fresh import of henon4 (all ``henon4*`` entries are
dropped from ``sys.modules`` and imported again), so module-level state such
as ``symmetry._bump_cache`` is empty at the start of each pass, as it is in
a new CLI process.  numpy stays imported.  The operations of one pass share
module state, as calls in one process do.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import check
import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFS = HERE / "refs"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    """Single-threaded numerics and the checkout's own henon4 sources.
    Must run before henon4 (and so numpy) is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "henon4" / "__init__.py").is_file():
        raise FileNotFoundError(f"henon4 sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def fresh_import() -> dict:
    """Import henon4 anew; returns {"henon4": package, short name: module}."""
    for name in [n for n in sys.modules if n == "henon4" or n.startswith("henon4.")]:
        del sys.modules[name]
    modules = {"henon4": importlib.import_module("henon4")}
    for short in LAYERS:
        modules[short] = importlib.import_module(f"henon4.{short}")
    return modules


def setup(workload: str, seed: int) -> tuple:
    """Fresh import plus the pass inputs: (modules, ops)."""
    modules = fresh_import()
    return modules, workloads.build(workload, seed, modules)


def load_refs(workload: str) -> dict:
    return json.loads((REFS / f"{workload}.json").read_text())


def run_pass(modules: dict, ops: list, out_dir: Path, tracer=None) -> tuple:
    """Run every op once; returns (wall_s, cpu_s, outcomes)."""
    dirs = [out_dir / f"op{i:02d}" for i in range(len(ops))]
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    cli = modules["cli"]
    results = []
    gc.collect()  # the modules dropped by fresh_import are garbage a new process would not carry
    with open(os.devnull, "w") as devnull:
        t0 = time.perf_counter()
        c0 = time.process_time()
        for op, d in zip(ops, dirs):
            span = tracer.span(f"cli.{op.command}") if tracer and op.argv else contextlib.nullcontext()
            with span:
                if op.argv:
                    with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(devnull):
                        results.append({"exit": cli.main([*op.argv, "--out-dir", str(d)])})
                else:
                    try:
                        results.append({"exit": 0, "value": float(op.call()), "error": None})
                    except Exception as exc:  # an operation that raises has failed
                        results.append({"exit": 3, "value": None, "error": f"{type(exc).__name__}: {exc}"})
        cpu = time.process_time() - c0
        wall = time.perf_counter() - t0
    outcomes = []
    for op, d, res in zip(ops, dirs, results):
        if op.argv:
            reports = {p.name: json.loads(p.read_text()) for p in sorted(d.glob("*.json"))}
            outcomes.append({"exit": res["exit"], "reports": reports})
        else:
            outcomes.append(res)
    return wall, cpu, outcomes


def evaluate(ops: list, outcomes: list, refs: dict) -> tuple:
    """(failed ops, ops whose outcome differs from the reference, details).

    An op fails if it does not exit 0 (or raises) or if its outcome differs
    from the reference; an op that fails the same way the reference did
    still counts as failed, but not as a difference."""
    failed = differ = 0
    details = []
    for op, got in zip(ops, outcomes):
        ref = refs.get(op.label)
        bad = ["no reference"] if ref is None else check.mismatches(ref, got)
        differ += bool(bad)
        failed += bool(bad) or got["exit"] != 0
        if bad:
            details.append(f"{op.label}: {'; '.join(bad[:3])}")
    return failed, differ, details


def file_bytes(out_dir: Path) -> dict:
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}
