"""Record the reference outcomes the output check compares against.

    python3 henonbench/make_refs.py [workload ...]

Runs one untraced pass per shipped seed and writes henonbench/refs/<workload>.json
with every operation's exit code and JSON reports (or value), and the python and
numpy versions they were made with.  Re-run only when outputs are meant to change.
"""

from __future__ import annotations

import json
import sys

import check
import harness
import workloads


def record(workload: str) -> dict:
    ops_ref: dict = {}
    for seed in workloads.SHIPPED_SEEDS:
        modules, ops = harness.setup(workload, seed)
        _, _, outcomes = harness.run_pass(modules, ops, harness.OUT / workload / "refs")
        for op, outcome in zip(ops, outcomes):
            if ops_ref.setdefault(op.label, outcome) != outcome:
                raise RuntimeError(f"{op.label}: outcome differs between two runs")
            print(f"{workload} seed={seed} {op.label}: exit {outcome['exit']}", flush=True)
    return {
        "environment": harness.environment(),
        "rel_tol": check.REL_TOL,
        "shipped_seeds": list(workloads.SHIPPED_SEEDS),
        "ops": ops_ref,
    }


def main() -> int:
    harness.prepare()
    harness.REFS.mkdir(exist_ok=True)
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        refs = record(workload)
        (harness.REFS / f"{workload}.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
