#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) that builds the repository's crates from source into
$CARGO_TARGET_DIR (default: .bench_build) and drives them through their
public APIs.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
workload runs twice on the same seed, untraced and then traced, and the
metrics are the per-layer ledger of the traced run plus
telemetry.overhead_pct, the cost of tracing measured between the two.
Everything else (build output, notes) goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("large_scene", "small_jobs", "remote_ingest", "fault_sweep")

# A run may take at most 180 s; the first build in a checkout may take 900.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        fail(f"--seed {args.seed} is not a 64-bit unsigned integer")
    if not 0 < args.seconds <= 600:
        fail(f"--seconds {args.seconds} is outside (0, 600]")
    return args


def build(target_dir):
    """Builds the benchmark binary in release mode and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail(f"{ROOT} holds no repository checkout (no Cargo.toml and crates/)")
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        built = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        fail("cargo is not on PATH")
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")
    return os.path.join(target_dir, "release", "perfbench")


def run_once(binary, args, trace, data_dir):
    """Runs one measured pass and returns its parsed result line."""
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(trace),
        "--data-dir", data_dir,
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{args.workload} printed no result line: {e}")
    return result


def overhead_pct(workload, untraced, traced):
    """Tracing cost in percent: on the open loop, where the arrival rate
    fixes throughput, the rise in median latency; elsewhere the fall in
    throughput."""
    if workload == "small_jobs":
        before = untraced["metrics"]["job_latency_p50_ms"]["value"]
        after = traced["metrics"]["bench.traced_latency_p50_ms"]["value"]
        return (after / before - 1.0) * 100.0
    before = untraced["metrics"]["jobs_per_s"]["value"]
    after = traced["metrics"]["bench.traced_jobs_per_s"]["value"]
    return (before / after - 1.0) * 100.0


def main():
    args = parse_args()
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    binary = build(target_dir)
    data_dir = os.path.join(target_dir, "perfbench-data")
    os.makedirs(data_dir, exist_ok=True)

    result = run_once(binary, args, 0, data_dir)
    if args.trace:
        traced = run_once(binary, args, 1, data_dir)
        traced["metrics"]["telemetry.overhead_pct"]["value"] = overhead_pct(
            args.workload, result, traced
        )
        traced["correct"] = result["correct"] and traced["correct"]
        traced["attempted"] += result["attempted"]
        traced["failed"] += result["failed"]
        result = traced
    print(json.dumps(result))


if __name__ == "__main__":
    main()
