#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the bmh library (through the
repository's own CMakeLists.txt) and the harness in `.bench_build` (or
$CARGO_TARGET_DIR when set), then runs one workload in its own process. The
harness prints a detail line, a configuration fingerprint line and, last, the
result: {"correct", "attempted", "failed", "metrics"}. Build output goes to
stderr. Exits non-zero when the build fails or any output check fails.

--tiny runs smoke-test sizes (seconds, not minutes); see smoke_test.py.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-hot", "batch-cold", "paper-kernels")


def build(build_dir):
    """Configures and builds the harness (both no-ops when up to date);
    returns its path."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "bmh_perfbench", "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            sys.exit(2)
    return os.path.join(build_dir, "bmh_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(build_dir))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(os.path.abspath(build_dir), "perfbench-work")]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
