#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload data_plane --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see ``perfbench/NOTES.md``
for the workloads and metrics).  The binary is built in release mode into
``$CARGO_TARGET_DIR`` (``.bench_build`` at the checkout root when unset);
the first run in a fresh checkout compiles the simulator crates.  Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON summary.  Without the repository's crates next to this
directory the script exits with status 2 and prints no summary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CRATES = ("core", "models", "sim", "workload")
SHIMS = ("rand", "rayon")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    manifests = [os.path.join(ROOT, "crates", c, "Cargo.toml") for c in CRATES]
    manifests += [os.path.join(ROOT, "shims", s, "Cargo.toml") for s in SHIMS]
    missing = [m for m in manifests if not os.path.isfile(m)]
    if missing:
        fail("the repository's crates are missing: " + ", ".join(missing))

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
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
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with status {build.returncode}")

    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:]])


if __name__ == "__main__":
    main()
