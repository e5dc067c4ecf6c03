#!/usr/bin/env python3
"""Determinism and attribution self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

For every workload it makes two untraced runs at the same seed and one
traced run, and for `pipeline` one more run at -j 1. It checks that

  * no run reports a failed pair;
  * every pair decided in both runs carries identical effort counts
    (conflicts, decisions, propagations, SAT checks, CEGIS iterations,
    clauses, queries), in every round both runs completed;
  * `bugs` reaches the identical verdict on every pair;
  * `pipeline` at -j 4 and at -j 1 gives identical effort counts;
  * the traced run's effort counts equal its plain passes' exactly;
  * on the -j 1 workloads, ir.parse_s + refine.nonquery_s + smt.nonsat_s +
    smt.sat_s accounts for the summed per-pair time within 5%.

A pair decided in one run and timed out in the other sat at the budget;
such flips are listed, not failed. Exit status 0 when every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (shares the build directory)

DECIDED = {"correct", "incorrect", "precondition-false"}


def bench(workload, seed, seconds, trace=0, jobs=None, tag=""):
    """Runs the benchmark; returns (detail, {(round, name): pair})."""
    pairs = os.path.join(run.build_dir(),
                         "selftest-%s%s.jsonl" % (workload, tag))
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--pairs", pairs]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.splitlines()
    detail = json.loads(out[-2])["perfbench"]
    with open(pairs) as f:
        records = [json.loads(line) for line in f]
    return detail, {(r["round"], r["name"]): r for r in records}


def compare(label, a, b, same_verdicts=False):
    """Checks pairs present in both runs. Returns the list of problems."""
    problems, flips, common = [], [], 0
    for key in sorted(set(a) & set(b)):
        x, y = a[key], b[key]
        common += 1
        if x["kind"] != y["kind"]:
            if same_verdicts:
                problems.append("%s: %s verdict %s vs %s" % (
                    label, key, x["kind"], y["kind"]))
            else:
                flips.append("%s/%s %s(%.3fs) vs %s(%.3fs)" % (
                    key[0], key[1], x["kind"], x["seconds"], y["kind"],
                    y["seconds"]))
        elif x["kind"] in DECIDED and x["effort"] != y["effort"]:
            problems.append("%s: %s effort %s vs %s" % (
                label, key, x["effort"], y["effort"]))
    print("%-34s %5d common pairs, %d flips at the budget%s" % (
        label, common, len(flips), (": " + "; ".join(flips[:5])) if flips
        else ""))
    if not common:
        problems.append("%s: no pairs in common" % label)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()

    problems = []
    for w in run.WORKLOADS:
        first, a = bench(w, args.seed, args.seconds, tag="-a")
        second, b = bench(w, args.seed, args.seconds, tag="-b")
        for d in (first, second):
            if d["failed"]:
                problems.append("%s: failed pairs %s" % (w, d["failed_pairs"]))
        problems += compare(w + ": run vs run", a, b,
                            same_verdicts=(w == "bugs"))
        if w == "pipeline":
            _, serial = bench(w, args.seed, args.seconds, jobs=1, tag="-j1")
            problems += compare(w + ": -j 4 vs -j 1", a, serial)
        traced, _ = bench(w, args.seed, args.seconds, trace=1, tag="-t")
        print("%-34s %d flips, %d effort mismatches, accounted %.4f" % (
            w + ": traced vs plain", traced["flips"],
            traced["effort_mismatches"], traced["accounted_ratio"]))
        if traced["failed"] or traced["effort_mismatches"]:
            problems.append("%s: traced run failed or effort differs" % w)
        if w != "pipeline" and abs(traced["accounted_ratio"] - 1) > 0.05:
            problems.append("%s: layers account for %.3f of pair time" % (
                w, traced["accounted_ratio"]))

    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
