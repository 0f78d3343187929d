#!/usr/bin/env python3
"""Compares two dmac_e2e result files, one row per workload x metric.

    python3 bench/e2e/compare.py PARENT CHANGE
    python3 bench/e2e/compare.py --make-baseline RUN1 RUN2 > baseline.json

PARENT and CHANGE are files written by `dmac_e2e --out`, `FILE:INDEX` to
pick one run out of a baseline file (bench/e2e/baseline.json holds two), or
several of these joined by commas: the runs of one side.

A side's values are the per-run medians of its runs; a side of one run is
split into five consecutive batches of its samples instead, whose medians
stand in for runs. The side's median is the median of its values and its
spread (q3 - q1) / median of their quartiles. Each end-to-end metric of
BENCHMARK.json then gets a verdict against its bound:

  unresolved  the wider of the two sides' spreads exceeds the bound, and the
              values of one side do not all read better (or all worse)
              than every value of the other
  regressed   the change's median is worse than the parent's by more than
              the bound
  improved    the change's median is better by more than that spread
  unchanged   anything else

fail_frac, the share of failed runs, regresses on any increase. The exit
status is 1 when any row regressed, 0 otherwise.
"""

import argparse
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


BATCHES = 5


def load_run(spec):
    path, _, index = spec.partition(":")
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if "runs" in doc:
        return doc["runs"][int(index) if index else 0]
    return doc


def side_values(runs, workload, metric):
    """Per-run medians, or batch medians of a single run's samples."""
    entries = [r["workloads"].get(workload, {}).get("end_to_end", {})
               .get(metric) for r in runs]
    if any(e is None for e in entries):
        return None
    if len(entries) > 1:
        return [e["median"] for e in entries]
    s = entries[0]["samples"]
    n = len(s)
    if n < BATCHES:
        return [entries[0]["median"]]
    return [statistics.median(s[i * n // BATCHES:(i + 1) * n // BATCHES])
            for i in range(BATCHES)]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def verdict(pv, cv, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    p, c = statistics.median(pv), statistics.median(cv)
    if p == 0:
        worse = 0.0 if c == 0 else math.inf * sign * (c - p)
    else:
        worse = sign * (c - p) / p
    wide = max(spread(pv), spread(cv))
    if wide > bound:
        ps = [sign * v for v in pv]
        cs = [sign * v for v in cv]
        if max(cs) < min(ps):
            return "improved", p, c, worse, wide
        if min(cs) > max(ps):
            return "regressed", p, c, worse, wide
        return "unresolved", p, c, worse, wide
    if worse > bound:
        return "regressed", p, c, worse, wide
    if worse < 0 and -worse > wide:
        return "improved", p, c, worse, wide
    return "unchanged", p, c, worse, wide


def compare(parent, change, benchmark):
    rows = []
    names = set()
    for r in parent + change:
        names |= set(r["workloads"])
    for name in sorted(names):
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            pv = side_values(parent, name, key)
            cv = side_values(change, name, key)
            if pv is None or cv is None:
                rows.append((name, key, "", "", "", "", "", "unresolved"))
                continue
            v, p, c, worse, wide = verdict(pv, cv, metric["bound"],
                                           metric["better"] == "lower")
            rows.append((name, key, f"{p:.6g}", f"{c:.6g}",
                         f"{100 * worse:+.2f}%", f"{100 * wide:.2f}%",
                         f"{100 * metric['bound']:.1f}%", v))
        pf = max(r["workloads"].get(name, {}).get("end_to_end", {})
                 .get("fail_frac", {}).get("value", 1) for r in parent)
        cf = max(r["workloads"].get(name, {}).get("end_to_end", {})
                 .get("fail_frac", {}).get("value", 1) for r in change)
        v = "regressed" if cf > pf else "improved" if cf < pf else "unchanged"
        rows.append((name, "fail_frac", f"{pf:.3g}", f"{cf:.3g}", "", "",
                     "0 abs", v))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sides", nargs=2, metavar="RESULT[,RESULT...]")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    ap.add_argument("--make-baseline", action="store_true",
                    help="print a baseline file holding the given runs")
    args = ap.parse_args()
    parent, change = ([load_run(r) for r in side.split(",")]
                      for side in args.sides)

    if args.make_baseline:
        json.dump({"schema": "dmac-e2e-baseline-v1", "runs": parent + change},
                  sys.stdout, indent=1)
        print()
        return 0

    with open(args.benchmark, encoding="utf-8") as f:
        benchmark = json.load(f)
    rows = compare(parent, change, benchmark)
    header = ("workload", "metric", "parent", "change", "worse", "spread",
              "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)).rstrip())
    return 1 if any(r[-1] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
