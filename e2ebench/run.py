#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload cell-large --seed 1 --seconds 10 --trace 0

Configures e2ebench/CMakeLists.txt (which builds the emwd library from the
surrounding source tree) into e2ebench/build, builds the harness, and runs
one workload from the repository root.  The harness's last stdout line is
the result JSON; build output goes to stderr.  Exits non-zero without a
result when the sources are missing, the build fails, or the run fails.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(BENCH_DIR, "build")
OUT_DIR = os.path.join(BENCH_DIR, "out")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "thiim", "simulation.hpp")):
        fail(f"emwd sources not found under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(BUILD_DIR, "e2ebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.relpath(OUT_DIR, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
