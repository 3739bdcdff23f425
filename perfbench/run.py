#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload tpcc-nvm --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is built with dune into
.bench_build/ (release profile); images and logs go to a scratch
directory under it that is removed when the run ends, and a traced run
writes its spans to .bench_build/perfbench-spans/<workload>-<seed>.tsv.
The last line of standard output is the JSON result; the exit code is
non-zero, with no result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["tpcc-nvm", "ycsb-log", "restart-analytics", "restore-faults"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--cycles", type=int, default=0, help="fixed cycle count (tests)")
    args = ap.parse_args()

    # The benchmark pins pool width, writers and log policy itself; drop
    # the variables that would otherwise change the engine's defaults.
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("HYRISE_NV_") and k != "OCAMLRUNPARAM"
    }
    env["DUNE_CACHE"] = "disabled"  # build artefacts stay in .bench_build/
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
         "--profile", "release", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")

    work = os.path.join(BUILD, "perfbench-work", "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if args.trace:
        spans = os.path.join(BUILD, "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-%d.tsv" % (args.workload, args.seed))]
    if args.cycles > 0:
        cmd += ["--cycles", str(args.cycles)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("run exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("no result line")
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
