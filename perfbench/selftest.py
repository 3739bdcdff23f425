#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Runs every workload briefly (two cycles) on a second seed, twice, then
once traced. It fails unless every oracle passes, the single-client
counts (Region op counts, WAL bytes and flushes, rolled-back rows,
quarantined segments, attempted and failed operations) repeat exactly
across the two same-seed runs, and each result line carries exactly the
metrics BENCHMARK.json declares, with their units.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 2
CYCLES = 2


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--cycles", str(CYCLES)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("%s: run exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.rstrip("\n").split("\n")
    counts = [line for line in lines if line.startswith("COUNTS ")]
    return counts, json.loads(lines[-1])


def check_metrics(workload, result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        sys.exit("%s: metrics %s, declared %s" % (workload, sorted(got), sorted(want)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in [w["name"] for w in bench["workloads"]]:
        counts1, r1 = run(w, 0)
        counts2, r2 = run(w, 0)
        for r in (r1, r2):
            if not r["correct"]:
                sys.exit("%s: an oracle failed" % w)
        check_metrics(w, r1, bench["end_to_end"])
        if not counts1 or counts1 != counts2 or (r1["attempted"], r1["failed"]) != (
                r2["attempted"], r2["failed"]):
            sys.exit("%s: counts differ across same-seed runs:\n%s\n%s" % (w, counts1, counts2))
        _, traced = run(w, 1)
        if not traced["correct"]:
            sys.exit("%s: an oracle failed in the traced run" % w)
        check_metrics(w, traced, bench["per_layer"])
        print("ok %s: %s failed=%d" % (w, counts1[0], r1["failed"]))


if __name__ == "__main__":
    main()
