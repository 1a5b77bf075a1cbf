#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark program lcbench (perfbench/CMakeLists.txt, which
compiles the analysis libraries from ../src in the repository's default
RelWithDebInfo configuration) and runs one workload:

    python3 perfbench/run.py --workload cold-check|warm-serve|edit-storm \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and is reused by later runs. lcbench's own
report lines (build type, compiler, nproc, seed, sample counts) are
passed through; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result when the sources are missing, the build fails, or the run does.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cold-check", "warm-serve", "edit-storm")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no LeakChecker sources under {root / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "lcbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "lcbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        exe = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    try:
        proc = subprocess.run([str(exe), "--workload", a.workload, "--seed", str(a.seed),
                               "--seconds", str(a.seconds), "--trace", str(a.trace)],
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"lcbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("lcbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
