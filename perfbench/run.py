#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark (and the program layers it links) from this checkout's
sources into .bench_build/perfbench, runs one workload and relays its output.
The last stdout line is the JSON result.

    python3 perfbench/run.py --workload packet-websearch --seed 13 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

With --trace 1 the span trace is also written, as Chrome trace-event JSON,
to .bench_build/perfbench-traces/<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "flowsim", "flow_sim_engine.h")):
        fail(f"program sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for step in steps:
        # Build logs go to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]], [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    names, workloads = declared_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload '{args.workload}' (expected one of {workloads})")
    build(["perfbench"])
    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(TRACES, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload run exceeded {RUN_TIMEOUT_S} s")
    lines = result.stdout.splitlines()
    if result.returncode or not lines:
        sys.stdout.write(result.stdout)
        fail(f"benchmark exited with code {result.returncode}")
    reported = list(json.loads(lines[-1])["metrics"])
    if reported != names:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics {reported} differ from BENCHMARK.json {names}")
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()
