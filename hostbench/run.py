#!/usr/bin/env python3
"""Build the Poseidon host benchmark from source and run it.

Run from the repository root:

    python3 hostbench/run.py --workload hybrid --seed 1 --seconds 30 --trace 0

The C++ package in this directory (hostbench/CMakeLists.txt) builds the
library from the repository's src/ tree under .bench_build/hostbench;
after the first run the build is incremental. The hostbench binary then
runs with the same arguments. Build output goes to standard error, and
the last line of standard output is the binary's result JSON. When the
source tree is missing or the build fails, this exits non-zero without
printing a result. With --trace 1 the span log is written next to the
build as spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
# One run must end within 180 s; set-up plus --seconds stays well below.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            check=True,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [
        os.path.join(BUILD, "hostbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = f"spans-{args.workload}-{args.seed}.jsonl"
        cmd += ["--spans", os.path.join(BUILD, spans)]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
