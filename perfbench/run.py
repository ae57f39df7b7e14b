#!/usr/bin/env python3
"""Build sbdserve and the benchmark from source, then run the benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own tests

Build output goes to standard error, so the last line of standard
output is the benchmark's result object.
"""
import os
import subprocess
import sys

TARGETS = ["./bin/sbdserve.exe", "./perfbench/bench.exe", "./perfbench/tests.exe"]


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the root of the repository", file=sys.stderr)
        return 2
    build = subprocess.run(["dune", "build", "--display=quiet", *TARGETS], stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    args = sys.argv[1:]
    exe = "bench.exe"
    if args[:1] == ["--test"]:
        exe, args = "tests.exe", args[1:]
    sys.stdout.flush()
    return subprocess.run([os.path.join("_build", "default", "perfbench", exe), *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
