#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload build-exact --seeds 1-5 [--seconds 20] [--trace 0]
        [--sets 2] [--values]

For every metric of the result line it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and the quartile distance as
a share of the median -- the steadiness figure the bounds in
BENCHMARK.json are judged against -- plus the wall time of each run, the
raw serving figures of the report line (qps, p50_us, p99_us) and its
host probes (host.*), which show whether the machine itself changed
speed between runs.

With --sets 2 every seed runs once per set, the sets interleaved (seed 1
of set A, seed 1 of set B, seed 2 of set A, ...), and each metric gets
both sets' figures and how much worse set B's median is than set A's.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Report-line figures shown beside the result line's: the serving figures
# as the client saw them, before the host adjustment.
RAW_SERVING = ("qps", "p50_us", "p99_us")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(args, seed):
    """One run; returns {metric: (value, unit)} of the result line and host.* probes."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
         "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit("seed %d: run failed with exit code %d" % (seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        report = json.loads(line).get("report", {})
        metrics.update({name: (m["value"], m["unit"]) for name, m in report.items()
                        if name.startswith("host.") or name in RAW_SERVING})
    return wall, result["correct"], metrics


def stats(series):
    med = statistics.median(series)
    q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--values", action="store_true", help="also print every run's value")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    higher = {m["name"] for m in spec["end_to_end"] + spec["per_layer"] if m["better"] == "higher"}

    sets = "AB"[:args.sets]
    values = {s: {} for s in sets}
    units = {}
    for seed in seed_list(args.seeds):
        for s in sets:
            wall, correct, metrics = run_once(args, seed)
            print("set %s seed %d: %.1f s wall, correct=%s" % (s, seed, wall, correct), flush=True)
            for name, (value, unit) in metrics.items():
                values[s].setdefault(name, []).append(value)
                units[name] = unit

    print("%-28s %3s %14s %14s %14s %8s %9s" % ("metric", "set", "median", "q1", "q3", "spread",
                                                 "B worse"))
    for name in values["A"]:
        for s in sets:
            med, q1, q3, spread = stats(values[s][name])
            worse = ""
            if s == "B":
                base = stats(values["A"][name])[0]
                change = (med - base) / base if base else float("nan")
                worse = "%+8.1f%%" % (100 * (-change if name in higher else change))
            print("%-28s %3s %14.6g %14.6g %14.6g %8.4f %9s  %s" % (
                name, s, med, q1, q3, spread, worse, units[name]))
            if args.values:
                print("    " + " ".join("%.6g" % v for v in values[s][name]))


if __name__ == "__main__":
    main()
