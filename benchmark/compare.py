#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, alternating parent and change.

    python3 benchmark/compare.py --parent DIR --change DIR
        [--pairs 10] [--seed 0] [--workloads fig8_grid,long_run]
        [--save runs.json]
    python3 benchmark/compare.py --load runs.json

Each pair runs `python3 benchmark/run.py` once in each checkout, with
the same seed and run length; even pairs run the parent first, odd
pairs the change first.  For every workload and end-to-end metric of
the parent's BENCHMARK.json it prints each side's median and quartiles,
the pairs the change won and lost, every run, and a verdict:

  gain          the change wins at least 9/10 of the pairs (ties count
                for neither) and the medians differ, in its favour, by
                more than the parent's interquartile range;
  unresolved    either side's spread (interquartile range / median)
                exceeds the metric's bound, and the change does not
                read better on every run;
  regression    the change's median is worse than the parent's by more
                than the bound;
  no change     none of the above.

A gain does not count when the change fails more operations than the
parent.  With fewer than 10 pairs no gain is claimed.  Standard
library only.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_once(checkout, workload, seed, seconds):
    """One untraced run in @checkout; returns its summary record."""
    result = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        raise SystemExit("compare.py: %s failed in %s (exit %d)" % (
            workload, checkout, result.returncode))
    return json.loads(lines[-1])


def collect(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    runs = {"pairs": args.pairs, "seed": args.seed, "workloads": {}}
    for workload in names:
        sides = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else \
                ("change", "parent")
            for side in order:
                sides[side].append(run_once(getattr(args, side), workload,
                                            args.seed,
                                            bench["run_seconds"]))
            print("%s: pair %d/%d done" % (workload, pair + 1, args.pairs),
                  file=sys.stderr)
        runs["workloads"][workload] = sides
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change, failed_more):
    """Classify one metric's paired runs (see the module docstring)."""
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
    mp, mc = statistics.median(parent), statistics.median(change)
    q1p, q3p = quartiles(parent)
    q1c, q3c = quartiles(change)
    spread = max((q3p - q1p) / mp if mp else math.inf,
                 (q3c - q1c) / mc if mc else math.inf)
    gain = (mp - mc) if lower else (mc - mp)
    worse = -gain / mp if mp else 0.0
    all_better = all(better(c, p) for c in change for p in parent)

    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and gain > q3p - q1p and not failed_more):
        label = "gain"
    elif spread > metric["bound"] and not all_better:
        label = "unresolved"
    elif worse > metric["bound"]:
        label = "regression"
    else:
        label = "no change"
    return {"wins": wins, "losses": losses, "parent": (mp, q1p, q3p),
            "change": (mc, q1c, q3c), "spread": spread, "label": label}


def report(runs, bench):
    print("%d pairs per workload, seed %d" % (runs["pairs"], runs["seed"]))
    if runs["pairs"] < MIN_PAIRS:
        print("fewer than %d pairs: no gain can be claimed" % MIN_PAIRS)
    worst = 0
    for workload, sides in runs["workloads"].items():
        failed = {side: sum(r["failed"] for r in records)
                  for side, records in sides.items()}
        incorrect = {side: sum(not r["correct"] for r in records)
                     for side, records in sides.items()}
        print("\n%s  (failed ops: parent %d, change %d; incorrect runs: "
              "parent %d, change %d)" % (
                  workload, failed["parent"], failed["change"],
                  incorrect["parent"], incorrect["change"]))
        print("  %-12s %-34s %-34s %-9s %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "won/lost", "verdict"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in sides["parent"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            v = verdict(metric, parent, change,
                        failed["change"] > failed["parent"])
            print("  %-12s %-34s %-34s %-9s %s (spread %.1f%%, bound "
                  "%.0f%%)" % (
                      name, "%.6g [%.6g, %.6g]" % v["parent"],
                      "%.6g [%.6g, %.6g]" % v["change"],
                      "%d/%d" % (v["wins"], v["losses"]), v["label"],
                      100 * v["spread"], 100 * metric["bound"]))
            print("    parent runs: %s" % ", ".join("%.6g" % x
                                                  for x in parent))
            print("    change runs: %s" % ", ".join("%.6g" % x
                                                  for x in change))
            if v["label"] == "regression" or incorrect["change"]:
                worst = 1
    return worst


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--save", help="write every run to this file")
    parser.add_argument("--load", help="report runs saved by --save")
    args = parser.parse_args()

    if args.load:
        with open(args.load) as f:
            saved = json.load(f)
        runs, bench = saved["runs"], saved["benchmark"]
    else:
        if not (args.parent and args.change):
            parser.error("--parent and --change are required")
        with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
            bench = json.load(f)
        runs = collect(args, bench)
        if args.save:
            with open(args.save, "w") as f:
                json.dump({"benchmark": bench, "runs": runs}, f, indent=1)
    return report(runs, bench)


if __name__ == "__main__":
    sys.exit(main())
