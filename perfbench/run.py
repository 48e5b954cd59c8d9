#!/usr/bin/env python3
"""Build and run the sepdc benchmark.

    python3 perfbench/run.py --workload uniform2d --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the `sepdc` CLI (the real `sepdc
serve` daemon the benchmark drives as a child process) and the benchmark
package, both with `cargo --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the benchmark with the given flags.
The last line of standard output is the result JSON. Exits non-zero,
printing no result, when the sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "cli")
    ):
        print("perfbench: run from a sepdc source checkout (Cargo.toml and crates/ missing)", file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "sepdc-cli", "--bin", "sepdc"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for extra in builds:
        # Build output goes to stderr: stdout carries only the benchmark's.
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    work_dir = os.path.join(target, "perfbench-work-%d" % os.getpid())
    cmd = [
        os.path.join(release, "sepdc-perfbench"),
        "--sepdc", os.path.join(release, "sepdc"),
        "--work-dir", work_dir,
    ] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
