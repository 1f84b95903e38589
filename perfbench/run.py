#!/usr/bin/env python3
"""Benchmark entry point.

Builds the solve daemon and the benchmark binary from source (release,
offline), then runs one workload in its own process:

    python3 perfbench/run.py <knobs from BENCHMARK.json> \
        --workload im_sweep --seed 0 --seconds 20 --trace 0

Everything after the knobs is passed through to the benchmark binary,
whose last stdout line is the result object. Run it from the repository
root; build output goes to $CARGO_TARGET_DIR (default .bench_build).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(env):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "fair-submod-service", "--bin", "fair-submod-service"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build(env)
    release = os.path.join(target, "release")
    exe = os.path.join(release, "perfbench")
    daemon = os.path.join(release, "fair-submod-service")
    os.chdir(ROOT)
    os.execv(exe, [exe, "--daemon", daemon] + sys.argv[1:])


if __name__ == "__main__":
    main()
