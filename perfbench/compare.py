#!/usr/bin/env python3
"""Compares two result sets of the benchmark, one row per workload x metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are files holding the stdout of any number of
`perfbench/run.py` runs (one set per commit). Each run contributes its
detail line, the `{"perfbench": ...}` object just before the result.

For every workload and metric the table gives each side's median and
quartiles, the change of the median, and the share of alternated
parent/change pairs the change won: the i-th parent run of a workload is
paired with the i-th change run (run them alternately, same seeds in the
same order), and ties count for neither side. The last column applies the
rules of the choosing-metrics method to the bounds in BENCHMARK.json:

  gain        the change won >= 90% of pairs and its median moved by more
              than the parent's own quartile spread
  regression  the median got worse by more than the metric's bound
  unresolved  the parent's spread is wider than the bound, and not every
              change run beat every parent run
  ok          none of the above

Verdict tallies are summed per side; any difference is printed, since a
change must not alter which verdicts the workloads reach. The exit status
is 1 when a regression or a tally difference is found.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """Returns {(workload, trace): [detail, ...]} in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith('{"perfbench"'):
                continue
            d = json.loads(line)["perfbench"]
            runs.setdefault((d["workload"], d["trace"]), []).append(d)
    return runs


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    bad = False
    print("%-9s %-24s %-28s %-28s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "delta", "won", "status"))
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        for name in p_runs[0]["metrics"]:
            if name not in spec or name not in c_runs[0]["metrics"]:
                continue
            m = spec[name]
            lower = m["better"] == "lower"
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(pv, cv) if c != p)
            pairs = min(len(pv), len(cv))
            delta = (cmed - pmed) / pmed if pmed else 0.0
            worse = delta if lower else -delta
            status = "ok"
            bound = m.get("bound")
            spread = (pq3 - pq1) / pmed if pmed else 0.0
            beats_all = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
            if pairs and wins >= 0.9 * pairs and abs(cmed - pmed) > pq3 - pq1:
                status = "gain"
            elif bound is not None and worse > bound:
                status = "REGRESSION"
                bad = True
            elif bound is not None and spread > bound and not beats_all:
                status = "unresolved"
            print("%-9s %-24s %-28s %-28s %+7.1f%% %3d/%-2d  %s" % (
                workload + ("/t" if trace else ""), name,
                "%.5g [%.5g, %.5g]" % (pmed, pq1, pq3),
                "%.5g [%.5g, %.5g]" % (cmed, cq1, cq3),
                100 * delta, wins, pairs, status))
        p_tally, c_tally = {}, {}
        for runs, tally in ((p_runs, p_tally), (c_runs, c_tally)):
            for r in runs:
                for kind, n in r["verdicts"].items():
                    tally[kind] = tally.get(kind, 0) + n
                tally["failed"] = tally.get("failed", 0) + r["failed"]
        print("%-9s verdicts  parent %s" % ("", json.dumps(p_tally,
                                                          sort_keys=True)))
        print("%-9s verdicts  change %s" % ("", json.dumps(c_tally,
                                                          sort_keys=True)))
        if c_tally.get("failed") or (workload == "bugs" and
                                     _shares(p_tally) != _shares(c_tally)):
            print("%-9s TALLY DIFFERS" % "")
            bad = True
    return 1 if bad else 0


def _shares(tally):
    """Verdict shares (runs differ in length, so compare proportions)."""
    total = sum(n for k, n in tally.items() if k != "failed")
    return {k: round(n / total, 9) for k, n in tally.items()
            if k != "failed" and total}


if __name__ == "__main__":
    sys.exit(main())
