#!/usr/bin/env python3
"""Build svm_bench from source and run one workload.

    python3 svm_bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
benchmark (and the rvvsvm libraries it links) under .bench_build/; later
runs rebuild only what changed.  Build output goes to stderr, so the last
line on stdout is svm_bench's JSON result.  --trace 1 makes the traced run,
whose Chrome trace lands in .bench_build/traces/.  See README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "svm_bench")
WORKLOADS = ("fused", "interp", "serve_small", "serve_large")


def build():
    """Configure (once) and build svm_bench; False when either step fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "svm_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: building svm_bench failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "svm_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    # The library reads these at start-up; a stray value would change the
    # measured configuration.
    env = {k: v for k, v in os.environ.items()
           if k not in ("RVVSVM_AUTOTUNE", "RVVSVM_COST_MODEL")}
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
