"""henon4 benchmark.

    python3 henonbench/run.py --workload sweep|large_alpha|suite --seed N
                              --seconds S --trace 0|1

Run from the root of a checkout; henon4 is imported from ./src.  A run
makes a fixed number of passes of the workload, about S seconds of work
(workloads.passes), so that attempted and failed do not depend on the
machine's speed.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it runs one untraced pass and then the rest as traced passes (at
least two, so that the counters can be compared), and prints the per-layer
metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See
henonbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import harness
import tracer as tr
import workloads

SETUP_REPEATS = 10  # extra set-ups before the first pass, for the setup_s median


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, refs: dict, log: dict) -> tuple:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        harness.setup(workload, seed)
        setup_times.append(time.perf_counter() - t0)
    walls, cpus, details = [], [], []
    attempted = failed = differ = 0
    for _ in range(workloads.passes(workload, seconds)):
        t0 = time.perf_counter()
        modules, ops = harness.setup(workload, seed)
        setup_times.append(time.perf_counter() - t0)
        wall, cpu, outcomes = harness.run_pass(modules, ops, harness.OUT / workload / "plain")
        walls.append(wall)
        cpus.append(cpu)
        f, d, more = harness.evaluate(ops, outcomes, refs)
        attempted += len(ops)
        failed += f
        differ += d
        details += more
    log.update(passes=len(walls), differences=details, run_s_all=walls, cpu_s_all=cpus, setup_s_all=setup_times)
    metrics = {
        "run_s": _metric(statistics.median(walls), "s"),
        "cpu_s": _metric(statistics.median(cpus), "s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": _metric(1.0 - failed / attempted, "frac"),
    }
    return differ == 0, attempted, failed, metrics


def trace(workload: str, seed: int, seconds: float, refs: dict, log: dict) -> tuple:
    modules, ops = harness.setup(workload, seed)
    plain_dir = harness.OUT / workload / "plain"
    plain_wall, _, outcomes = harness.run_pass(modules, ops, plain_dir)
    attempted = len(ops)
    failed, differ, details = harness.evaluate(ops, outcomes, refs)
    plain_files = harness.file_bytes(plain_dir)
    per_pass, walls, first = [], [], None
    same_reports = True
    for _ in range(max(2, workloads.passes(workload, seconds) - 1)):
        modules, ops = harness.setup(workload, seed)
        spans = tr.Tracer()
        log["bindings_wrapped"] = spans.install(modules)
        try:
            wall, _, outcomes = harness.run_pass(modules, ops, harness.OUT / workload / "traced", spans)
        finally:
            spans.restore()
        first = first or spans
        walls.append(wall)
        per_pass.append(tr.summarize(spans))
        f, d, more = harness.evaluate(ops, outcomes, refs)
        attempted += len(ops)
        failed += f
        differ += d
        details += more
        same_reports &= harness.file_bytes(harness.OUT / workload / "traced") == plain_files
    merged, differing = tr.merge_passes(per_pass)
    merged["trace.overhead_s"] = statistics.median(walls) - plain_wall
    merged["failed_frac"] = failed / attempted
    log.update(
        passes=len(per_pass),
        counts_differing=differing,
        traced_reports_identical=same_reports,
        differences=details,
        untraced_run_s=plain_wall,
        traced_run_s_all=walls,
    )
    trace_path = harness.OUT / workload / f"trace-seed{seed}.json"
    trace_path.write_text(json.dumps(tr.dump_spans(first)))
    log["trace_file"] = str(trace_path.relative_to(harness.ROOT))
    units = json.loads((harness.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {u["name"]: _metric(merged[u["name"]], u["unit"]) for u in units}
    correct = differ == 0 and not differing and same_reports
    return correct, attempted, failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        harness.prepare()
        refs = harness.load_refs(args.workload)
    except (FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"henonbench: {exc}\n")
        return 2
    seed = workloads.shipped_seed(args.seed)
    log = {
        "workload": args.workload,
        "seed": args.seed,
        "shipped_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(),
        "reference_environment": refs["environment"],
    }
    body = trace if args.trace else measure
    correct, attempted, failed, metrics = body(args.workload, seed, args.seconds, refs["ops"], log)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out = harness.OUT / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**log, **result}, indent=1, default=str) + "\n")
    print(json.dumps({k: log[k] for k in ("environment", "passes", "differences")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
