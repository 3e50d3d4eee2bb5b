#!/usr/bin/env python3
"""Run one workload N times (seeds 1..N) and print the spread of every metric.

Usage (from the repository root):
    python3 perfbench/spread.py --workload field_radio --runs 10 [--seconds 20] [--trace 0]

For each metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median, next to the bound BENCHMARK.json gives the metric. It also prints
the share of failed operations of each run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values = {}
    for seed in range(1, args.runs + 1):
        run = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(args.trace)],
                             stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            print(f"seed {seed}: run failed with code {run.returncode}")
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} (share {share:.6g})", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
        if args.verbose:
            print("    " + " ".join(f"{v:.6g}" for v in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
