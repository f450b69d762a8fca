#!/usr/bin/env python3
"""Gates the paper-claim shapes of EXPERIMENTS.md on the bench binaries.

Runs bench_fig3_futures (F3a), bench_fig3_gen1_gen2 (F3b), the DOP-1 row of
bench_fig2_access_layer (F2), bench_a1_recovery (A1) and
bench_a6_control_plane (A6) with --benchmark_format=json, and checks their
counters:

  * deterministic counters (modelled time, control hops, tasks, fabric bytes,
    gangs dispatched) must equal the values EXPERIMENTS.md reports;
  * the rows that follow thread timing are checked against a stated band.
    A1's lineage row reads 45.1444 ms on an idle host and 44.1-44.6 under
    load: its re-executed producers fall back to locality placement, which
    breaks ties by live in-flight counts. A1's lineage and replication rows
    both gain 5 ms per producer that a kill fails over after `Wait` saw its
    output ready but before its completion was recorded, so replication
    reads 0 idle and 5 under load. A6's scale-ups read 14
    on an idle host (7 per node, from 1 to 8 workers) and fewer when the
    burst drains between ticks.

Wall-time counters and F2's DOP 2-8 rows (their partial aggregates land
where thread timing puts them) are not checked. Sanitizers stretch thread
timing, so only non-sanitizer builds register this as a ctest row.

Usage: tools/claims.py [--bench-dir build/bench]
Exit status: 0 when every check holds, 1 when one fails (each is printed),
2 when a binary is missing or its output cannot be read.
"""

import argparse
import json
import math
import os
import subprocess
import sys

F3A = "BM_FutureResolution/proto(0=pull,1=push):{proto}/op_ns:{op_ns}/iterations:2"
F3B = "BM_Gen1VsGen2/gen:{gen}/op_ns:{op_ns}/iterations:2"
A1 = "BM_Recovery/mode(0=lineage,1=repl,2=ec):{mode}/iterations:2"
OP_NS = (10_000, 100_000, 1_000_000, 10_000_000)


def expectations():
    """Yields (binary, benchmark, counter, expected); `expected` is a number
    that must match exactly, or a (low, high) band."""
    for proto in (0, 1):
        for op_ns, ms in zip(OP_NS, (1.188798, 2.268798, 13.068798, 121.068798)):
            name = F3A.format(proto=proto, op_ns=op_ns)
            yield "bench_fig3_futures", name, "modelled_ms", ms
            yield "bench_fig3_futures", name, "overhead_per_op_us", 89.0665
    for gen, hops, modelled in (
        (1, 96, (3.323422, 4.763422, 19.163422, 163.163422)),
        (2, 48, (1.883134, 3.323134, 17.723134, 161.723134)),
    ):
        for op_ns, ms in zip(OP_NS, modelled):
            name = F3B.format(gen=gen, op_ns=op_ns)
            yield "bench_fig3_gen1_gen2", name, "control_hops", hops
            yield "bench_fig3_gen1_gen2", name, "modelled_ms", ms
    dop1 = "BM_SqlGroupByDop/1/iterations:2"
    yield "bench_fig2_access_layer", dop1, "fabric_KiB", 0
    yield "bench_fig2_access_layer", dop1, "modelled_work_ms", 4.040234
    yield "bench_fig2_access_layer", dop1, "tasks", 2
    for mode, recovery, storage in (
        (0, (40.0, 55.5), 1.0), (1, (0.0, 10.5), 2.0), (2, 5.233912, 1.5)):
        yield "bench_a1_recovery", A1.format(mode=mode), "recovery_ms", recovery
        yield "bench_a1_recovery", A1.format(mode=mode), "storage_factor", storage
    yield "bench_a6_control_plane", "BM_AutoscalerBurst/autoscale:0/iterations:2", "scale_ups", 0
    yield "bench_a6_control_plane", "BM_AutoscalerBurst/autoscale:1/iterations:2", "scale_ups", (4, 14)
    yield "bench_a6_control_plane", "BM_GangScheduling/gang:0/iterations:2", "gangs_dispatched", 0
    yield "bench_a6_control_plane", "BM_GangScheduling/gang:1/iterations:2", "gangs_dispatched", 1


# Only F2's DOP-1 row is checked, so only it runs.
FILTERS = {"bench_fig2_access_layer": "BM_SqlGroupByDop/1/"}


def run(bench_dir, binary):
    """Returns {benchmark name: row} from one JSON run of `binary`."""
    path = os.path.join(bench_dir, binary)
    if not os.path.exists(path):
        raise RuntimeError(f"{path} not found; build the benches first")
    cmd = [path, "--benchmark_format=json"]
    if binary in FILTERS:
        cmd.append(f"--benchmark_filter={FILTERS[binary]}")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return {row["name"]: row for row in json.loads(out)["benchmarks"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", default="build/bench")
    args = parser.parse_args()

    rows = {}
    failures = 0
    checks = 0
    for binary, name, counter, expected in expectations():
        try:
            if binary not in rows:
                rows[binary] = run(args.bench_dir, binary)
        except (RuntimeError, subprocess.CalledProcessError, ValueError) as e:
            print(f"claims: {binary}: {e}", file=sys.stderr)
            return 2
        checks += 1
        actual = rows[binary].get(name, {}).get(counter)
        if actual is None:
            ok = False
        elif isinstance(expected, tuple):
            ok = expected[0] <= actual <= expected[1]
        else:
            ok = math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12)
        if not ok:
            failures += 1
            want = f"in [{expected[0]}, {expected[1]}]" if isinstance(expected, tuple) else expected
            print(f"FAIL {binary} {name} {counter}: {actual}, expected {want}")
    print(f"claims: {checks - failures}/{checks} checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
