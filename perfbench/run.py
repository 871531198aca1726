#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The build (CMake, RelWithDebInfo) and
every file a run writes go to .bench_build/ there; the first run builds the
library and the benchmark program, later runs only check that the build is
current. Build output goes to standard error, so the last line of standard
output is the benchmark program's JSON result. Exits non-zero without a
result when the build or the run fails. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "hazy_perfbench")


def build():
    steps = [["cmake", "--build", CMAKE_DIR, "--target", "hazy_perfbench", "-j", "4"]]
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [BINARY] + sys.argv[1:] + ["--workdir", os.path.join(BUILD, "work")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
