#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch_t8|delta_stream|serve_open_loop \
        --seed N --seconds S --trace 0|1 [--inject flip|drop|dup]

The harness is built with CMake under $CARGO_TARGET_DIR (default
.bench_build) next to this directory's parent; build output goes to standard
error.  The last line of standard output is the harness's JSON result.  With
--trace 1 the chrome trace is written to <build dir>/traces/.  --inject is
the self-test's fault hook (see selftest.py).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_t8", "delta_stream", "serve_open_loop")
# A run must end within 180 s, plus the build on the first run in a checkout.
HARNESS_LIMIT_S = 170.0
BUILD_LIMIT_S = 720.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the harness; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    tree = os.path.join(build_dir, "perfbench")
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", tree,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, stdout=sys.stderr, check=True,
                           timeout=BUILD_LIMIT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", tree, "--target",
                        "perfbench_harness", "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_LIMIT_S)
    return os.path.join(tree, "perfbench_harness")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject", choices=("flip", "drop", "dup"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no program sources (%s) next to %s" % (needed, HERE))

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        harness = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)

    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.inject:
        command += ["--inject", args.inject]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                timeout=HARNESS_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("the harness did not finish within %.0f s" % HARNESS_LIMIT_S)
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
