#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sim-spec|campaign|explore \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository.  It builds perfbench/main.exe
with dune into .bench_build (release profile, dune cache off, so
nothing is written outside the tree), runs it with the same arguments
and passes its output through: the last line of standard output is the
JSON result.  With --trace 1 the span ledger is written to
.bench_build/spans-<workload>-<seed>.jsonl.  When the build or the run
fails it exits non-zero, and no result line is printed.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def option(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    if not os.path.isfile("dune-project"):
        sys.exit("run.py: run from the repository root (no dune-project here)")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled", "-j", "2",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("run.py: build failed (exit %d)" % build.returncode)
    if option(args, "--trace", "0") == "1":
        spans = os.path.join(BUILD_DIR, "spans-%s-%s.jsonl"
                             % (option(args, "--workload", "none"),
                                option(args, "--seed", "0")))
        args = args + ["--spans", spans]
    try:
        run = subprocess.run([EXE] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
