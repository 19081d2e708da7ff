#!/usr/bin/env python3
"""Smoke test of arl_benchmark (the `benchmark_smoke` ctest).

For every workload in BENCHMARK.json, arl_benchmark runs at --smoke size:

  * untraced at seed 0: the summary record has exactly the keys
    correct/attempted/failed/metrics, every end-to-end metric with its
    unit and a positive value, and no failed operation;
  * traced at seed 0: every per-layer metric, and a span file that
    `arl_sim validate` accepts;
  * untraced at seed 1: a different sim_digest, the same metric keys,
    and no failed operation.

Last, a digest store holding wrong digests must fail every attempted
operation (the negative test of the seed-0 digest gate).

    python3 smoke.py --bin arl_benchmark --arl-sim arl_sim \
        --benchmark-json BENCHMARK.json --work-dir DIR
"""

import argparse
import json
import os
import subprocess
import sys

SUMMARY_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(args, workload, seed, extra=()):
    """Run one smoke-size workload; return (detail, summary) records."""
    command = [args.bin, "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--smoke", "--work-dir", args.work_dir]
    result = subprocess.run(command + list(extra), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, check=False)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or len(lines) < 2:
        raise AssertionError("%s exited %d:\n%s" % (
            " ".join(command), result.returncode, result.stderr))
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_summary(summary, specs, what):
    """Shape of one summary record against BENCHMARK.json; returns
    problems."""
    problems = []
    if set(summary) != SUMMARY_KEYS:
        problems.append("%s: keys %s" % (what, sorted(summary)))
        return problems
    metrics = summary["metrics"]
    if set(metrics) != {m["name"] for m in specs}:
        problems.append("%s: metrics %s" % (what, sorted(metrics)))
    for spec in specs:
        got = metrics.get(spec["name"], {})
        if got.get("unit") != spec["unit"]:
            problems.append("%s: %s unit %r" % (
                what, spec["name"], got.get("unit")))
        if not isinstance(got.get("value"), (int, float)):
            problems.append("%s: %s has no value" % (what, spec["name"]))
    if not summary["correct"] or summary["failed"] != 0:
        problems.append("%s: correct=%s failed=%s" % (
            what, summary["correct"], summary["failed"]))
    if summary["attempted"] < 1:
        problems.append("%s: nothing attempted" % what)
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin", required=True)
    parser.add_argument("--arl-sim", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    os.makedirs(args.work_dir, exist_ok=True)
    with open(args.benchmark_json) as f:
        bench = json.load(f)

    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        detail, summary = run_bench(args, workload, 0)
        problems += check_summary(summary, bench["end_to_end"], workload)
        problems += ["%s: %s is not positive" % (workload, name)
                     for name, m in summary["metrics"].items()
                     if not m["value"] > 0]

        spans = os.path.join(args.work_dir, "spans-%s.json" % workload)
        _, traced = run_bench(args, workload, 0, ["--trace-file", spans])
        problems += check_summary(traced, bench["per_layer"],
                                  workload + " traced")
        if subprocess.run([args.arl_sim, "validate", spans],
                          stdout=subprocess.DEVNULL).returncode != 0:
            problems.append("%s: span file does not validate" % workload)

        other, reseeded = run_bench(args, workload, 1)
        problems += check_summary(reseeded, bench["end_to_end"],
                                  workload + " seed 1")
        if other["sim_digest"] == detail["sim_digest"]:
            problems.append("%s: seed 1 kept sim_digest" % workload)

    wrong = os.path.join(args.work_dir, "wrong-expected.json")
    with open(wrong, "w") as f:
        json.dump({"smoke_sim_digest":
                   {w["name"]: "00000000" for w in bench["workloads"]}}, f)
    workload = bench["workloads"][0]["name"]
    _, summary = run_bench(args, workload, 0, ["--expected", wrong])
    if summary["correct"] or summary["failed"] != summary["attempted"]:
        problems.append("%s: a wrong stored digest did not fail every "
                        "operation (%s)" % (workload, summary))

    for problem in problems:
        print("FAIL " + problem)
    print("benchmark smoke: %d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
