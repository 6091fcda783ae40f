#!/usr/bin/env python3
"""Build and run the end-to-end group-protocol benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload <delay_pb_64b|saturate_pb_1k|stream_bb_8k> \
        --seed <n> --seconds <s> --trace <0|1>

Configures and builds this directory (a CMake package that compiles the
library from ../src) into .bench_build/e2ebench, runs the benchmark's
self-test, then runs the benchmark. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result. A
failed build, self-test or run exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout=None):
    """Run cmd with its output on stderr; return its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 1


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    if run_quiet(configure) != 0:
        return False
    return run_quiet(["cmake", "--build", BUILD, "-j", "3"]) == 0


def main(argv):
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    if run_quiet([os.path.join(BUILD, "e2ebench_selftest")], timeout=60) != 0:
        print("e2ebench: self-test failed", file=sys.stderr)
        return 2
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        args += ["--spans", os.path.join(BUILD, f"spans_{workload}.tsv")]
    try:
        proc = subprocess.run([os.path.join(BUILD, "e2ebench")] + args,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 2
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
