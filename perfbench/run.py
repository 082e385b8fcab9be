"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest-reddit --seed 1 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
once untraced and once with every layer entry point wrapped, and prints
the per-layer metrics (spans go to ``.perfbench_out/``).  Metric names
and units are declared in ``BENCHMARK.json``.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when any check failed.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _first_line(cmd: list[str]) -> str | None:
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = (p.stderr or p.stdout).strip().splitlines()
    return out[0] if out else None


def _context(args, spark_master) -> dict:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = _first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    try:
        pyspark = importlib.metadata.version("pyspark")
    except importlib.metadata.PackageNotFoundError:
        pyspark = None
    return {
        "git_commit": commit,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyspark": pyspark,
        "java": _first_line(["java", "-XX:-UsePerfData", "-version"]),
        "spark_master": spark_master,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.harness import WORKLOADS, run_workload

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # every workload in the harness runs; BENCHMARK.json declares those the
    # benchmark is gated on (README.md says why stream-twitter is not)
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(work)
    os.makedirs(out, exist_ok=True)
    os.environ["TMPDIR"] = work  # Python and PySpark temp files stay in the checkout
    tempfile.tempdir = work
    trace_path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.jsonl")
    try:
        report = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work,
            cores=min(2, os.cpu_count() or 1), trace_path=trace_path,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only if no other run is using it
        except OSError:
            pass

    kind = "per_layer" if args.trace else "end_to_end"
    computed = report[kind]
    metrics, problems = {}, []
    for d in declared[kind]:
        if d["name"] not in computed:
            problems.append(f"metric {d['name']} was not measured")
            continue
        value, unit = computed[d["name"]]
        if not math.isfinite(value):
            problems.append(f"metric {d['name']} = {value}")
            value = None
        metrics[d["name"]] = {"value": value, "unit": unit}
    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)

    for name, (value, unit) in sorted(computed.items()):
        print(f"{args.workload:15s} {name:34s} {value:16.6g} {unit}")
    print("perfbench-report " + json.dumps({
        "workload": args.workload,
        "context": _context(args, report["spark_master"]),
        "samples": report["samples"],
        "answer_digests": report["digests"],
        "failed_op_ratio": report["end_to_end"]["failed_op_ratio"][0],
        "trace_file": os.path.relpath(trace_path, ROOT) if args.trace else None,
    }))
    correct = report["failed"] == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
