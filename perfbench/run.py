#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

    python3 perfbench/run.py --workload hot_dashboard --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first call configures and compiles the
benchmark and the program's libraries (CMake, RelWithDebInfo) into
.bench_build/perfbench; later calls only rebuild what changed. The
benchmark runs with SEA_THREADS = min(4, cores) - 1: one core stays free
for the serving thread and the host, which measurably steadies the
timings on a shared 4-core host. Build output goes to stderr; the last
stdout line is the benchmark's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "serving_bench")
THREADS = max(1, min(4, os.cpu_count() or 1) - 1)


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "serving_bench",
         "-j", str(THREADS)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def bench_env(threads=THREADS):
    env = dict(os.environ)
    env["SEA_THREADS"] = str(threads)
    return env


def main(argv):
    try:
        build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    return subprocess.run([BINARY] + argv, env=bench_env()).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
