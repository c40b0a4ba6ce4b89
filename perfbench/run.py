#!/usr/bin/env python3
"""Builds `cool` and the benchmark from source, then runs the benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan|serve_mixed|session_churn \
        --seed N --seconds S --trace 0|1

Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. Binaries land in $CARGO_TARGET_DIR
(default `.bench_build`). The exit code is the benchmark's, or the
build's when a build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--bin", "cool"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"run.py: `{' '.join(cmd)}` failed", file=sys.stderr)
            return built.returncode or 1
    bench = os.path.join(target, "release", "cool-perfbench")
    cool = os.path.join(target, "release", "cool")
    return subprocess.run([bench, *sys.argv[1:], "--cool-bin", cool], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
