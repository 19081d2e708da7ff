#!/usr/bin/env python3
"""Build the arl benchmark from source and run one workload.

Run from the root of a checkout:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

The first run configures the root CMake project in .bench_build/ with
benchmark/hook.cmake as its project-include hook and builds
`arl_benchmark` and `arl_sim`; later runs rebuild incrementally.
Build output goes to stderr, so the last line on stdout is the summary
record of `arl_benchmark`.  Run files (trace cache, telemetry, span
files) live in .bench_run/.

A traced run (--trace 1) writes its spans to .bench_run/spans-W.json
and checks them with `arl_sim validate`, one more attempted operation;
a span file that does not validate fails it and marks the run
incorrect.

Exit status: arl_benchmark's, or 2 when the tree cannot be built here.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"


def build(root):
    """Configure once, then build arl_benchmark and arl_sim."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        sys.exit("run.py: no arl source tree at %s" % root)
    hook = os.path.join(root, "benchmark", "hook.cmake")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", ".", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                        "-DCMAKE_PROJECT_INCLUDE=" + hook],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "arl_benchmark", "arlsim"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    try:
        build(root)
    except (OSError, subprocess.CalledProcessError) as error:
        print("run.py: build failed: %s" % error, file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)

    command = [os.path.join(BUILD_DIR, "benchmark", "arl_benchmark"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--work-dir", RUN_DIR]
    spans = os.path.join(RUN_DIR, "spans-%s.json" % args.workload)
    if args.trace:
        command += ["--trace-file", spans]
    bench = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = bench.stdout.splitlines()
    if bench.returncode != 0 or not lines:
        sys.stderr.write(bench.stdout)
        return bench.returncode or 1

    if args.trace:
        check = subprocess.run(
            [os.path.join(BUILD_DIR, "tools", "arl_sim"), "validate", spans],
            stdout=sys.stderr)
        summary = json.loads(lines[-1])
        summary["attempted"] += 1
        if check.returncode != 0:
            summary["failed"] += 1
            summary["correct"] = False
        lines[-1] = json.dumps(summary)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
