#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 rbbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every call configures and builds the
benchmark (rbbench/CMakeLists.txt, which compiles the library from src/)
into $CARGO_TARGET_DIR/rbbench, default .bench_build/rbbench; only the
first call compiles everything, later ones rebuild what changed. Build output goes to stderr. The benchmark's own
progress also goes to stderr; the last line of stdout is its JSON result.
A traced run (--trace 1) also leaves its spans in <build dir>/traces/.

Workloads: sweep-cold, sweep-warm, serve-open-loop, forge (METRICS.md).
The exit code is non-zero, and no result is printed, when the build or the
run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("sweep-cold", "sweep-warm", "serve-open-loop", "forge")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[rbbench] {message}", file=sys.stderr, flush=True)


def build(source_dir, build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    # Two runs sharing a checkout must not build over each other.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "rbbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "rbbench"))
    try:
        binary = build(source_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--spans", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.tsv")]
    # Measure the library's defaults: no RUSTBRAIN_* switch reaches the run.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RUSTBRAIN_")}
    try:
        result = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log(f"run failed with exit code {result.returncode}")
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        log("run printed no JSON result")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
