#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload browse|write|mixed --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/
(the lsd library from src/ plus lsd_perfbench, Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset, then runs lsd_perfbench with the same arguments. Build output
goes to stderr; the last line of stdout is the JSON result. See
perfbench/NOTES.md for what each workload measures.
"""

import argparse
import fcntl
import os
import subprocess
import sys


def build(source_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build tree, however many runs start.
    with open(os.path.join(build_dir, ".build-lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["browse", "write", "mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        build(source_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    return subprocess.run([
        os.path.join(build_dir, "lsd_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", os.path.join(build_root, "work"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
