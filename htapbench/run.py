#!/usr/bin/env python3
"""Builds and runs the HTAP ledger benchmark from the root of a checkout.

    python3 htapbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the oltap library and the benchmark program (ledger.cc) from source
into .bench_build/ (incremental after the first run), runs one workload, and
passes the program's output through: the last line of standard output is the
result JSON. A traced run also writes its spans to
.bench_build/spans/<workload>.jsonl. Build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "htapbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "htap_ledger")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "htap_ledger"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("build failed: %s" % e, file=sys.stderr)
            return False
        if done.returncode != 0:
            print("build failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small tables and rate (self-tests)")
    args = parser.parse_args()

    if not build():
        return 1
    workdir = os.path.join(BUILD_DIR, "work-%d" % os.getpid())
    span_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--span-file", os.path.join(span_dir, args.workload + ".jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:
        print("benchmark timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
