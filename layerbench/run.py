#!/usr/bin/env python3
"""Builds layerbench from the checkout it sits in and runs one workload.

    python3 layerbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 layerbench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build (or
$CARGO_TARGET_DIR when set) and is incremental. The program's report is
passed through; its last line, one JSON object with the keys correct,
attempted, failed and metrics, is checked against BENCHMARK.json before it
is printed as this script's last line. Exits non-zero, without a result
line, when the build fails or the result line does not match
BENCHMARK.json, and with the program's own non-zero code when an output
failed verification.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds both targets; False on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    result = subprocess.run(["cmake", "--build", out, "-j", jobs],
                            stdout=sys.stderr)
    return result.returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def check_result(line, trace):
    """Returns an error message, or None when the line is a valid result."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"result line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return f"result keys {sorted(result) if isinstance(result, dict) else result}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number"
    want = expected_metrics(trace)
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(
                metric["value"], (int, float)):
            return f"metric {name} is malformed: {metric}"
    return None


def self_test():
    binary = os.path.join(build_dir(), "layerbench_selftest")
    proc = subprocess.run([binary], capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return proc.returncode
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(sample) != RESULT_KEYS:
        log(f"sample report keys {sorted(sample)}")
        return 1
    print("ok   emitted report parses as JSON with the result keys")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 3
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    command = [os.path.join(build_dir(), "layerbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", ".bench_out"]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 5
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        log(f"no output (exit {proc.returncode})")
        return proc.returncode or 4
    for line in lines[:-1]:
        print(line)
    error = check_result(lines[-1], args.trace == 1)
    if error is not None:
        log(f"{error}\nrejected line: {lines[-1]}")
        return proc.returncode or 4
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
