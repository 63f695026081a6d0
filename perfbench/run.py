#!/usr/bin/env python3
"""Builds the server and the benchmark from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload hot|cold|churn --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default .bench_build). The benchmark's
last stdout line is its JSON result; the exit code is non-zero on any
failure, including a failed build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "fairhms"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: the last stdout line is the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "fairhms-perfbench"), *sys.argv[1:],
             "--server", os.path.join(release, "fairhms"),
             "--out-dir", os.path.join(target, "perfbench")]
    sys.exit(subprocess.run(bench, cwd=root).returncode)


if __name__ == "__main__":
    main()
