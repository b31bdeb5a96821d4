#!/usr/bin/env python3
"""Builds and runs the JECB end-to-end benchmark (perfbench/perfbench.cc).

Run from the repository root:

    python3 perfbench/run.py --workload tpcc --seed 1 --seconds 10 --trace 0

The benchmark is a CMake package of its own that compiles the library
sources under src/. It is configured once into the build directory named by
$CARGO_TARGET_DIR (default .bench_build), rebuilt incrementally on every
call, and then run from the repository root with every argument passed
through. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Outputs (merged cluster trace, per-layer table,
transient socket files) go to perfbench_out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns its binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
