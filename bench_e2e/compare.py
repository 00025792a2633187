#!/usr/bin/env python3
"""Compare bench_e2e result sets under the bounds in BENCHMARK.json.

  python3 bench_e2e/compare.py BASE_SET OTHER_SET [MORE_SETS ...]

A set is a directory of result JSON written by bench_e2e (run.py --set
writes one). For every workload and end-to-end metric the script prints
each set's median and quartiles over its runs, and judges every set after
the first against the first:

  worse       the median is worse by more than the metric's bound
  better      the median is better by more than the bound
  same        the medians are within the bound
  unresolved  a set's spread (quartile distance over median) exceeds the
              bound, so the medians cannot be told apart, unless every run
              of the later set beats every run of the first ("better")

It also checks that the deterministic work counts agree between sets for
every workload and seed both have. It exits 1 on any "worse" or any count
that differs, 0 otherwise. Standard library only.
"""

import glob
import json
import os
import statistics
import sys

COUNTS = ["vertical.intersections", "vertical.tids_scanned",
          "vertical.words_scanned", "vertical.tidlist_mb", "eclat.itemsets"]


def load_set(directory):
    """{workload: [result, ...]} for every result file in the directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            result = json.load(handle)
        if result.get("benchmark") == "bench_e2e":
            runs.setdefault(result["workload"], []).append(result)
    return runs


def metric(result, name):
    for group in ("end_to_end", "per_layer", "details"):
        if name in result.get(group, {}):
            return result[group][name]["value"]
    return None


def summary(values):
    mid = statistics.median(values)
    if len(values) < 2:
        return mid, mid, mid
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3


def verdict(base, other, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    base_mid, base_q1, base_q3 = summary(base)
    mid, q1, q3 = summary(other)
    spread = max((base_q3 - base_q1) / base_mid, (q3 - q1) / mid)
    worse_by = sign * (mid - base_mid) / base_mid
    if spread > bound:
        if all(sign * (o - b) < 0 for o in other for b in base):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def main(argv):
    if len(argv) < 3 or argv[1] in ("-h", "--help"):
        print(__doc__)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = argv[1:]
    sets = [load_set(name) for name in names]
    workloads = [w["name"] for w in spec["workloads"]]
    regressions = 0
    for workload in workloads:
        print(workload)
        for m in spec["end_to_end"]:
            lower = m["better"] == "lower"
            series = []
            for runs in sets:
                values = [metric(r, m["name"]) for r in runs.get(workload, [])
                          if r["mode"] == "e2e"]
                series.append([v for v in values if v is not None])
            for i, (name, values) in enumerate(zip(names, series)):
                label = m["name"] if i == 0 else ""
                if not values:
                    print("  %-15s %-28s no runs" % (label, name))
                    continue
                mid, q1, q3 = summary(values)
                line = ("  %-15s %-28s n=%-3d median %-11.5g q1 %-11.5g "
                        "q3 %-11.5g spread %5.1f%%" %
                        (label, os.path.basename(name.rstrip("/")),
                         len(values), mid, q1, q3, 100 * (q3 - q1) / mid))
                if i == 0:
                    line += "  bound %g%%" % (100 * m["bound"])
                elif series[0]:
                    change = 100 * (mid - statistics.median(series[0])) / \
                        statistics.median(series[0])
                    judged = verdict(series[0], values, m["bound"], lower)
                    regressions += judged == "worse"
                    line += "  %+6.1f%% %s" % (change, judged)
                print(line)
    mismatches = 0
    for workload in workloads:
        seen = {}
        for name, runs in zip(names, sets):
            for result in runs.get(workload, []):
                for count in COUNTS:
                    value = metric(result, count)
                    if value is None:
                        continue
                    key = (result["seed"], count)
                    first = seen.setdefault(key, (name, value))
                    if first[1] != value:
                        mismatches += 1
                        print("count differs: %s seed %s %s: %s in %s, %s in %s"
                              % (workload, result["seed"], count, first[1],
                                 first[0], value, name))
    print("%d worse, %d count mismatches" % (regressions, mismatches))
    return 1 if regressions or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
