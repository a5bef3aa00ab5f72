#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and end-to-end metric.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds one file per run, named <workload>-<tag>.json (or
.out), whose last line is the JSON result run.py printed.  Runs of the two
sets with the same file name form a pair (run them alternately, base first
on even pairs, new first on odd ones).  For each workload and metric the
report gives each side's median and quartiles, the share of pairs the new
side won (ties count for neither), and a verdict:

  better        the new side won at least 9/10 of the pairs, the medians
                differ by more than the base's quartile distance, and no
                larger share of the new side's operations failed
  worse         the new median is worse than the base's by more than the
                metric's bound (BENCHMARK.json)
  unresolved    the spread between quartiles of either side is wider than
                the bound, and not every new run beats every base run
  within bound  otherwise

It also prints each side's share of failed operations.  Standard library
only.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory, workloads):
    """{workload: {tag: result}} for the runs in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        stem, ext = os.path.splitext(name)
        if ext not in (".json", ".out"):
            continue
        workload = next((w for w in workloads if stem.startswith(w + "-")),
                        None)
        if workload is None:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            continue
        runs.setdefault(workload, {})[stem[len(workload) + 1:]] = \
            json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, new, pairs, more_failed):
    lower = metric["better"] == "lower"
    bound = metric.get("bound", 0.0)
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    wins = sum(1 for b, n in pairs if (n < b if lower else n > b))
    won = wins / len(pairs) if pairs else 0.0
    gain = (bmed - nmed) if lower else (nmed - bmed)
    if won >= 0.9 and gain > bq3 - bq1 and not more_failed:
        return won, "better"
    worse_by = -gain / bmed if bmed else 0.0
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (nq3 - nq1) / nmed if nmed else 0.0)
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if spread > bound and not all_better:
        return won, "unresolved"
    if worse_by > bound:
        return won, "worse"
    return won, "within bound"


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    base_runs = load(argv[1], workloads)
    new_runs = load(argv[2], workloads)
    fmt = "%-16s %-18s %10s %10s %10s | %10s %10s %10s | %5s  %s"
    print(fmt % ("workload", "metric", "base q1", "median", "q3",
                 "new q1", "median", "q3", "won", "verdict"))
    for workload in workloads:
        base = base_runs.get(workload, {})
        new = new_runs.get(workload, {})
        if not base or not new:
            print("%-16s (no runs on one side)" % workload)
            continue
        tags = sorted(set(base) & set(new))
        base_failed = failed_share(list(base.values()))
        new_failed = failed_share(list(new.values()))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base.values()]
            n = [r["metrics"][name]["value"] for r in new.values()]
            pairs = [(base[t]["metrics"][name]["value"],
                      new[t]["metrics"][name]["value"]) for t in tags]
            won, call = verdict(metric, b, n, pairs,
                                new_failed > base_failed)
            bq, nq = quartiles(b), quartiles(n)
            print(fmt % (workload, name, "%.4g" % bq[0], "%.4g" % bq[1],
                         "%.4g" % bq[2], "%.4g" % nq[0], "%.4g" % nq[1],
                         "%.4g" % nq[2], "%.2f" % won, call))
        print("%-16s failed share: base %.6f (%d runs), new %.6f (%d runs), "
              "%d pairs" % (workload, base_failed, len(base), new_failed,
                            len(new), len(tags)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
