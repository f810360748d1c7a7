#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 layerbench/spread.py --workloads hot_zipf,churn --seeds 1-10

Runs layerbench/run.py once per (workload, seed) with --trace 0 and prints,
per metric, the median and the interquartile distance as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound in
BENCHMARK.json. A spread above a third of its bound is marked WIDE; one
above the bound itself makes the exit code 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    status = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], capture_output=True, text=True)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
            if proc.returncode != 0 or not line.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(line)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.5g}" for n in bounds),
                flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            mark = "ok"
            if spread > bounds[name] / 3:
                mark = "WIDE"
            if spread > bounds[name]:
                mark = "OVER BOUND"
                status = 1
            print(f"  {workload:10s} {name:18s} median={median:.5g} "
                  f"spread={spread:.4f} bound={bounds[name]} {mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
