#!/usr/bin/env python3
"""Builds and runs the end-to-end placement benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload router_burst --seed 1 --seconds 30 --trace 0

Each run configures and builds perfbench/ (the placement libraries from src/
plus the benchmark binary) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; only the first run
compiles everything, later runs rebuild only what changed.  Build output
goes to stderr.  The benchmark's own output, ending in one JSON result line,
goes to stdout, and its exit code is returned.  With --trace 1 the recorded spans are written next to the build
as trace-<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("router_burst", "search_dive", "churn")
RUN_TIMEOUT_S = 170


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
