#!/usr/bin/env python3
"""Smoke test of the repository benchmark, at tiny sizes.

    python3 perfbench/smoke_test.py [--binary PATH]

Run from the root of a checkout. For every workload run.py accepts (those in
BENCHMARK.json and paper-kernels, which run.py runs but BENCHMARK.json does
not gate) it runs the untraced and the traced mode at tiny sizes and asserts
that the result is correct and prints exactly the metrics BENCHMARK.json
names, each with its unit. It runs the untraced mode twice with one seed and asserts that the
timing-free record digests agree, and once more with another seed and
asserts that they differ. Without --binary the harness is built through
run.py; with it (as ctest passes it) that binary is run directly.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(binary, workload, seed, trace, work_dir):
    if binary:
        cmd = [binary, "--work-dir", work_dir]
    else:
        cmd = [sys.executable, os.path.join(HERE, "run.py")]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError("%s (trace %d) exited %d:\n%s" %
                             (workload, trace, done.returncode, done.stderr[-3000:]))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = next(json.loads(l)["fingerprint"] for l in lines if l.startswith('{"fingerprint"'))
    return result, fingerprint


def check_metrics(result, expected, label):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError("%s: result keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError("%s: %s" % (label, {k: result[k] for k in ("correct", "attempted", "failed")}))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        raise AssertionError("%s: metrics differ from BENCHMARK.json:\n got  %s\n want %s" % (label, got, want))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError("%s: %s is not a number" % (label, name))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", help="run this harness binary instead of run.py")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build") if os.path.isdir(
            os.path.join(ROOT, ".bench_build")) else None) as work_dir:
        for workload in WORKLOADS:
            first, fp1 = run(args.binary, workload, 7, 0, work_dir)
            check_metrics(first, spec["end_to_end"], workload + " trace 0")
            for name in ("setup_s", "quality_mean", "jobs_per_s"):
                if not first["metrics"][name]["value"] > 0:
                    raise AssertionError("%s: %s is not positive" % (workload, name))
            traced, _ = run(args.binary, workload, 7, 1, work_dir)
            check_metrics(traced, spec["per_layer"], workload + " trace 1")
            _, fp2 = run(args.binary, workload, 7, 0, work_dir)
            if fp1["digest"] != fp2["digest"]:
                raise AssertionError("%s: record digest differs between runs with one seed" % workload)
            _, fp3 = run(args.binary, workload, 8, 0, work_dir)
            if fp3["digest"] == fp1["digest"]:
                raise AssertionError("%s: another seed gave the same records" % workload)
            print("ok %s" % workload, flush=True)
    print("perfbench smoke test passed")


if __name__ == "__main__":
    main()
