#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload garage_scan --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

The benchmark is a CMake package of its own (e2ebench/CMakeLists.txt)
that compiles the mqp library straight from src/. It is built into
.bench_build/e2ebench; the first call builds, later calls only check that
the build is current. With --trace 1 the Chrome trace of the traced run
is written to .bench_build/traces/<workload>.json.

The last line of standard output is the benchmark's JSON result. Build
failures, a missing src/ tree or a run that exceeds its time limit exit
nonzero without printing a result.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
WORKLOADS = ("garage_scan", "superpeer_lookup", "churn_faults")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
SELFTEST_TIMEOUT_S = 600


def fail(message, code):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configures and builds `target` under a lock (runs may overlap)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "mqp", "mqp.h")):
        fail(f"the mqp sources are missing under {os.path.join(ROOT, 'src')}", 2)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "e2ebench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_ROOT, "e2ebench.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                      "-j", jobs])
        for step in steps:
            try:
                result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out (log: {log_path})", 3)
            if result.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})", 3)
    return os.path.join(BUILD_DIR, target)


def run(cmd, timeout):
    """Runs `cmd` with stdout passed through; kills it past `timeout`."""
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout} s", 124)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(run([build("e2e_selftest")], SELFTEST_TIMEOUT_S))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("e2e_bench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(TRACE_DIR, args.workload + ".json")]
    sys.stdout.flush()
    sys.exit(run(cmd, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
