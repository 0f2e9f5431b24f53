#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 drbench/run.py --workload climate-serial --seed 1 --seconds 10 --trace 0

The first call configures and builds drbench (and the drai libraries it
links) into .bench_build/drbench; later calls rebuild incrementally. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero, printing no result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "drbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"drbench: build failed: {err}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    binary = os.path.join(BUILD, "drbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
