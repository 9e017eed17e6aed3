#!/usr/bin/env python3
"""Build `comet-serve` and the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 repobench/run.py --workload serve-hot|serve-explain|eval-table3 \
        --seed N --seconds S --trace 0|1

Both builds go to `$CARGO_TARGET_DIR` (default `.bench_build`). Build
output goes to standard error; the benchmark's report, ending with the
JSON result line, goes to standard output.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "comet-serve", "--bin", "comet-serve"],
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for args in builds:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args], env=env, stdout=sys.stderr
        )
        if done.returncode != 0:
            print(f"error: build failed: cargo build {' '.join(args)}", file=sys.stderr)
            return done.returncode
    bench = os.path.join(target, "release", "repobench")
    server = os.path.join(target, "release", "comet-serve")
    os.execv(bench, [bench, *sys.argv[1:], "--server-bin", server])


if __name__ == "__main__":
    sys.exit(main())
