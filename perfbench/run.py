#!/usr/bin/env python3
"""Builds the real-stack catalog benchmark from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload <caves-interactive|cms-campaign|sdss-derive>
                             --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/CMakeLists.txt (Release)
into .bench_build/perfbench; later runs only re-check the build. Build
output goes to standard error. The benchmark prints its context and
metric lines, then one JSON object as the last line of standard output.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the repository sources (src/) are not next to "
              "perfbench/; nothing to build", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configured = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configured.returncode != 0:
            return configured.returncode
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    built = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr)
    return built.returncode


def main():
    status = build()
    if status != 0:
        return status
    binary = os.path.join(BUILD, "vdg_perfbench")
    return subprocess.run([binary] + sys.argv[1:] +
                          ["--data-dir", DATA]).returncode


if __name__ == "__main__":
    sys.exit(main())
