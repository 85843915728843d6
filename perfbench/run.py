#!/usr/bin/env python3
"""Build the host-performance benchmark driver and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cap_storm --seed 1 --seconds 10 --trace 0

The driver is built from source into the directory named by
CARGO_TARGET_DIR (default: .bench_build) with the build's output sent to
stderr, so the last line of standard output is the driver's JSON result.
Every argument is passed through to the driver (see perfbench/README.md).
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure (once) and build the driver; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: simulator sources not found under " + str(ROOT / "src"))
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out)],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench"


def main():
    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: " + str(e))
    args = [str(driver), "--dir", str(BENCH_DIR)] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
