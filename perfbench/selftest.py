#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: runs every workload at tiny size.

usage (from the repository root): python3 perfbench/selftest.py

For each workload in BENCHMARK.json, and for stream_ingest, which runs but
is not gated, it runs perfbench/run.py --tiny twice,
untraced and traced, and checks that the result line lists every end-to-end
metric (untraced) or per-layer metric (traced) with the unit BENCHMARK.json
gives, that every operation was checked and correct (error_rate 0), and that
the context line carries the host and workload stamp. Exits 0 when all pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runnable and checked, but not in BENCHMARK.json (see README.md).
UNGATED_WORKLOADS = ["stream_ingest"]
CONTEXT_KEYS = ["nproc", "build_type", "compiler", "git_commit", "seed", "cluster",
                "clients", "loop", "latency_samples", "error_rate"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        return None, None, f"exit {done.returncode}, no result: {done.stderr[-2000:]}"
    return json.loads(lines[-2])["context"], json.loads(lines[-1]), None


def check(workload, trace, wanted):
    context, result, error = run(workload, trace)
    if error:
        return [error]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')} {context.get('problems')}")
    if context.get("error_rate") != 0:
        problems.append(f"error_rate {context.get('error_rate')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append(f"metrics {sorted(metrics)} != {sorted(m['name'] for m in wanted)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}, want unit {m['unit']}")
    for key in CONTEXT_KEYS:
        if key not in context:
            problems.append(f"context lacks {key}")
    if trace == 0:
        p99 = context.get("ungated", {}).get("latency_p99_us", {})
        if p99.get("unit") != "us" or not isinstance(p99.get("value"), (int, float)):
            problems.append(f"context ungated latency_p99_us: {p99}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]] + UNGATED_WORKLOADS:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            problems = check(workload, trace, wanted)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
