#!/usr/bin/env python3
"""Builds the ccq perf benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds
the library and the ccq_perfbench program (Release) under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build.  Build output
goes to stderr; stdout carries the program's lines, the last of which is
the JSON result.  The exit code is the program's (non-zero on a failed
correctness or exact-count check), or non-zero when the sources are
missing or the build fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build-general", "build-exact", "serve-spanner")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds ccq_perfbench; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src", "ccq")):
        sys.exit("perfbench: no ccq sources in %s; run from a full checkout" % ROOT)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "--target", "ccq_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "ccq_perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = os.path.join(build_dir(), "perfbench")
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)

    runs = os.path.join(out, "runs")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out-dir", runs]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %ds" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        sys.exit(proc.returncode or 1)

    result = json.loads(lines[-1])
    names = list(result["metrics"])
    if names != expected_metrics(args.trace):
        sys.exit("perfbench: result metrics %s do not match BENCHMARK.json" % names)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
