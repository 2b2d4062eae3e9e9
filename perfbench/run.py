#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The crate in this directory is built in release mode into
``$CARGO_TARGET_DIR`` (default ``.bench_build`` at the checkout root);
the arguments go to the binary unchanged, which replaces this process,
so the figures it reports (peak memory included) are its own. A failed
build exits with cargo's status and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])
    return 1  # not reached: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
