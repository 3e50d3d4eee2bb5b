#!/usr/bin/env python3
"""Build and run one workload of the Garnet end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload field_radio --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the program's sources and the benchmark with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, and prints its result as the last line of standard output:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output is shown only when the build fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("field_radio", "inject_fanout", "gateway_tcp")
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(targets):
    """Configures (once) and builds the targets; returns the build dir."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def step(command):
        # Build chatter is kept off both streams unless the step fails.
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise subprocess.CalledProcessError(done.returncode, command)

    def attempt():
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            step(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        step(["cmake", "--build", out, "-j", jobs, "--target", *targets])

    try:
        attempt()
    except subprocess.CalledProcessError:
        # A build tree configured for another checkout path cannot be
        # reused; start it afresh once before giving up.
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            raise
        shutil.rmtree(out)
        attempt()
    return out


def manifest_metrics(trace):
    """Names of the metrics BENCHMARK.json asks of a run in this mode."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the benchmark's own checkers")
    args = parser.parse_args()

    try:
        if args.self_test:
            out = build(["perfbench_checks_test"])
            return subprocess.run([os.path.join(out, "perfbench_checks_test")]).returncode
        if args.workload is None:
            parser.error("--workload is required")
        out = build(["perfbench", "garnet-gw"])
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--gw", os.path.join(out, "garnet", "gw", "garnet-gw")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run failed with code {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: run printed no result", file=sys.stderr)
        return 1
    missing = manifest_metrics(args.trace) - set(result["metrics"])
    if missing:
        print(f"perfbench: run printed no {', '.join(sorted(missing))}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
