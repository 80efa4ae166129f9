#!/usr/bin/env python3
"""Records interleaved sets of benchmark runs of two checkouts and compares them.

    python3 perfbench/compare.py record OUT_DIR PARENT_ROOT CHANGE_ROOT [--seeds 1-10]
                                        [--workloads serve-hot,paper-kernels]
    python3 perfbench/compare.py compare OUT_DIR/parent OUT_DIR/change

`record` runs every workload of BENCHMARK.json (or the ones --workloads
names, paper-kernels among them) once per seed in each of two checkouts,
through each checkout's own perfbench/run.py, and keeps each run's
output as OUT_DIR/{parent,change}/<workload>/<seed>.out. The two checkouts
run seed by seed, interleaved, and the one that runs first alternates, so
drift in the machine's speed over time falls on both sides alike.

`compare` pairs the runs of two such directories by workload and seed. Per
workload and metric it reports each side's median and quartiles, the fraction
of pairs the change wins (ties count for neither), and a verdict:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the spread of either side exceeds the bound (unless every run
              of the change beats every run of the parent)
  unchanged   otherwise

Besides the end-to-end metrics, it gives verdicts on the per-phase figures
of the detail line listed in PHASE_METRICS, with the bound of the metric
they make up: batch-cold's jobs_per_s spans a build and a restart phase, and
a loss in one phase that a gain in the other hides must still show.

A run that reports correct=false or failed jobs is left out of the
comparison. A workload with such a run on the change side, or with more
failed jobs on the change side than on the parent side, is marked invalid.
It also checks that paired runs were made with the same settings (the
configuration fingerprint, seed and frozen rates included) and flags pairs
whose timing-free record digests differ. Exits 1 when any metric regressed
or any workload is invalid.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Fingerprint keys that describe a run rather than its settings.
RUN_KEYS = {"digest", "speedup_graph_edges"}
# Detail-line figures gated like the end-to-end metric they make up:
# {workload: {detail key: end-to-end metric whose unit, direction and bound apply}}.
PHASE_METRICS = {"batch-cold": {"build_jobs_per_s": "jobs_per_s",
                                "restart_jobs_per_s": "jobs_per_s"}}


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(args):
    spec = load_spec()
    sides = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                os.makedirs(os.path.join(args.out, side, workload), exist_ok=True)
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"])]
                done = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
                path = os.path.join(args.out, side, workload, "%d.out" % seed)
                with open(path, "w") as f:
                    f.write(done.stdout)
                print("%s %s seed %d: exit %d -> %s" % (side, workload, seed, done.returncode, path),
                      flush=True)


def load_runs(directory):
    """{workload: {seed: run}}, where a run holds the metrics (the detail
    line's figures included), the fingerprint, correct and failed."""
    runs = {}
    for workload in sorted(os.listdir(directory)):
        for name in sorted(os.listdir(os.path.join(directory, workload))):
            with open(os.path.join(directory, workload, name)) as f:
                lines = [json.loads(l) for l in f.read().splitlines() if l.startswith("{")]
            if not lines:
                print("warning: %s/%s holds no result" % (workload, name))
                continue
            result = lines[-1]
            fingerprint = next((l["fingerprint"] for l in lines if "fingerprint" in l), {})
            detail = next((l["detail"] for l in lines if "detail" in l), {})
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            metrics.update(detail)
            runs.setdefault(workload, {})[fingerprint.get("seed", name)] = {
                "metrics": metrics, "fingerprint": fingerprint,
                "correct": result.get("correct") is True, "failed": result.get("failed", 0)}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """Classifies one (workload, metric) row; returns (verdict, win fraction)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_fraction = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / pm if pm else 0, (c3 - c1) / cm if cm else 0)
    worse_by = sign * (pm - cm) / pm if pm else 0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", win_fraction
    if worse_by > bound:
        return "regressed", win_fraction
    if win_fraction >= 0.9 and abs(cm - pm) > (p3 - p1):
        return "improved", win_fraction
    return "unchanged", win_fraction


def check_validity(parent, change):
    """Prints every invalid run; returns the seeds both sides ran validly and
    whether the workload is invalid (the change failed where the parent did
    not, or failed more often)."""
    valid = lambda run: run["correct"] and run["failed"] == 0
    for side, runs in (("parent", parent), ("change", change)):
        for seed, run in sorted(runs.items()):
            if not valid(run):
                print("  %s seed %s: correct=%s failed=%d, left out" %
                      (side, seed, run["correct"], run["failed"]))
    invalid = (any(not valid(run) for run in change.values())
               or sum(r["failed"] for r in change.values()) > sum(r["failed"] for r in parent.values()))
    if invalid:
        print("  INVALID: the change has incorrect or failed runs")
    seeds = sorted(s for s in set(parent) & set(change) if valid(parent[s]) and valid(change[s]))
    return seeds, invalid


def compare(args):
    spec = load_spec()
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    bad = False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        print("\n== %s" % workload)
        seeds, invalid = check_validity(parent_runs[workload], change_runs[workload])
        bad |= invalid
        if not seeds:
            print("  no valid pairs")
            continue
        print("  %d valid pairs" % len(seeds))
        for seed in seeds:
            fp_p = parent_runs[workload][seed]["fingerprint"]
            fp_c = change_runs[workload][seed]["fingerprint"]
            differ = sorted(k for k in set(fp_p) | set(fp_c)
                            if k not in RUN_KEYS and fp_p.get(k) != fp_c.get(k))
            if differ:
                print("  warning: seed %s ran with different settings: %s" % (seed, ", ".join(differ)))
            if fp_p.get("digest") != fp_c.get("digest"):
                print("  note: seed %s records differ (digest %s vs %s)" %
                      (seed, fp_p.get("digest"), fp_c.get("digest")))
        print("  %-28s %-9s %-30s %-30s %5s  %s" %
              ("metric", "unit", "parent q1/median/q3", "change q1/median/q3", "wins", "verdict"))
        rows = [(name, m) for name, m in end_to_end.items()]
        rows += [(key, end_to_end[of]) for key, of in PHASE_METRICS.get(workload, {}).items()]
        for name, m in rows:
            parent = [parent_runs[workload][s]["metrics"][name] for s in seeds]
            change = [change_runs[workload][s]["metrics"][name] for s in seeds]
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            row_verdict, wins = verdict(parent, change, m["better"], m["bound"])
            bad |= row_verdict == "regressed"
            print("  %-28s %-9s %-30s %-30s %5.2f  %s" % (name, m["unit"], fmt(quartiles(parent)),
                                                       fmt(quartiles(change)), wins, row_verdict))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("out")
    rec.add_argument("parent_root", help="root of the parent checkout")
    rec.add_argument("change_root", help="root of the change checkout")
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's workloads")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    args = parser.parse_args()
    if args.command == "record":
        record(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
