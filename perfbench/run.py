#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 10 --trace 0

The first run configures and builds a Release tree in .bench_build/perfbench
(the xcp library, xcp_sweep_shard, xcp_node and xcp_perfbench); later runs only
rebuild what changed. Build output goes to stderr. xcp_perfbench's stdout is
passed through: human-readable "# " lines, then one JSON result line.
Exit code: xcp_perfbench's (0 correct, 1 a check failed, 2 usage or set-up
error); 2 without a result when the source tree or the build is missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("matrix", "matrix-sharded", "committee-sim", "committee-procs")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("CMakeLists.txt", "src", "tools", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(need):
            fail(f"run from the repository root: {need} is missing")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "xcp_perfbench", "perfbench_tests"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD_DIR, "xcp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
