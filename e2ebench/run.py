#!/usr/bin/env python3
"""Build dacd and the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 e2ebench/run.py --workload hit-heavy --seed 1 --seconds 10 --trace 0

Build output goes to stderr; the benchmark's last stdout line is its JSON
result. Builds land in $CARGO_TARGET_DIR (default .bench_build); scratch
stores and trace files go to .bench_build/e2ebench. Both are inside the
checkout and ignored by git.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args, env):
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return done.returncode == 0


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("e2ebench: no Cargo.toml at the repository root", file=sys.stderr)
        return 1
    if not build(["--bin", "dacd"], env):
        return 1
    if not build(["--manifest-path", os.path.join(ROOT, "e2ebench", "Cargo.toml")], env):
        return 1
    work = os.path.join(ROOT, ".bench_build", "e2ebench")
    exe = os.path.join(target, "release", "e2ebench")
    dacd = os.path.join(target, "release", "dacd")
    os.execv(exe, [exe, *sys.argv[1:], "--dacd", dacd, "--work-dir", work])


if __name__ == "__main__":
    sys.exit(main())
