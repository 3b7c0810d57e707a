"""Counter self-check of the tracer.

    python3 henonbench/selfcheck.py

Runs `symmetry-sweep --m 1 --seed 0` on the default grid once untraced and
twice traced, and checks that

  1. the traced counters repeat exactly between the two traced runs;
  2. the traced reports are byte-identical to the untraced ones;
  3. the traced counts equal direct counts taken during the first traced run
     by a profile hook (sys.setprofile) on the code objects of the quadrature
     kernel, the finite-interval driver and the search objective, which does
     not depend on which module bindings the tracer replaced.

It also prints whether the counts still equal those measured on the commit
that introduced the benchmark (BASELINE); a change to the search or the
driver is expected to move them, so that line is informational.
Exit status 0 when checks 1-3 pass.
"""

from __future__ import annotations

import inspect
import sys

import harness
import tracer as tr

BASELINE = {
    "symmetry.objective_evals": 3528,
    "quadrature.integrals": 7064,
    "quadrature.driver_iters": 34983,
    "quadrature.nodes": 1325610,
}


def _code_named(code, name: str):
    for const in code.co_consts:
        if getattr(const, "co_name", None) == name:
            return const
    raise LookupError(f"no nested code object {name!r}")


def direct_counter(modules: dict):
    """A profile hook counting calls of the GK15 kernel, `integrate` and
    the search objective; returns (hook, counts)."""
    quadrature = modules["quadrature"]
    counts = {"objective": 0, "integrate": 0, "batches": 0, "nodes": 0}
    kernel = quadrature._gk15_batch.__code__
    driver = inspect.unwrap(quadrature.integrate).__code__
    objective = _code_named(inspect.unwrap(modules["symmetry"].radial_max_search).__code__, "objective")

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code is kernel:
            counts["batches"] += 1
            counts["nodes"] += frame.f_locals["los"].size * 15
        elif code is driver:
            counts["integrate"] += 1
        elif code is objective:
            counts["objective"] += 1

    return hook, counts


def traced_run(ops, out_dir, with_direct: bool):
    modules, _ = harness.setup("sweep", 0)
    spans = tr.Tracer()
    spans.install(modules)
    hook, direct = direct_counter(modules) if with_direct else (None, None)
    sys.setprofile(hook)
    try:
        harness.run_pass(modules, ops, out_dir, spans)
    finally:
        sys.setprofile(None)
        spans.restore()
    return tr.summarize(spans), direct


def main() -> int:
    harness.prepare()
    modules, ops = harness.setup("sweep", 0)
    ops = [op for op in ops if op.label == "symmetry-sweep m=1 seed=0"]
    out = harness.OUT / "selfcheck"
    harness.run_pass(modules, ops, out / "plain")
    first, direct = traced_run(ops, out / "traced1", with_direct=True)
    second, _ = traced_run(ops, out / "traced2", with_direct=False)

    plain = harness.file_bytes(out / "plain")
    differing = [k for k in tr.COUNT_METRICS if first[k] != second[k]]
    expected = {
        "symmetry.objective_evals": direct["objective"],
        "quadrature.integrals": direct["integrate"],
        "quadrature.driver_iters": direct["batches"],
        "quadrature.nodes": direct["nodes"],
    }
    checks = [
        ("counters repeat across two traced runs", not differing, differing or "all equal"),
        (
            "traced reports identical to untraced",
            harness.file_bytes(out / "traced1") == plain == harness.file_bytes(out / "traced2"),
            f"{len(plain)} files",
        ),
        (
            "traced counts equal direct counts",
            all(first[k] == v for k, v in expected.items()),
            {k: (first[k], v) for k, v in expected.items()},
        ),
    ]
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    same = all(first[k] == v for k, v in BASELINE.items())
    print(f"[{'same' if same else 'moved'}] baseline counts {BASELINE}: now {({k: first[k] for k in BASELINE})}")
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
