#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs the benchmark's unit tests (percentile rule, open-loop due-time
accounting, span self time, queue-residual subtraction, metrics decoding,
catalogue vs BENCHMARK.json), then one run of every workload, and checks
that the runs left the working tree unchanged: the same files with the
same bytes outside the ignored build directories, and nothing but trace
files left in the scratch directory.

Usage, from the repository root:

    python3 e2ebench/selftest.py
"""
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORED = {".bench_build", "target", ".git", os.path.join("e2ebench", "target")}
WORKLOADS = [("hit-heavy", "1"), ("miss-compute", "0"), ("flow-batch", "0")]


def snapshot():
    """Path -> SHA-256 of every file outside the ignored directories."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = os.path.relpath(dirpath, ROOT)
        dirnames[:] = [
            d for d in dirnames if os.path.normpath(os.path.join(rel, d)) not in IGNORED
        ]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, ROOT)] = hashlib.sha256(f.read()).hexdigest()
    return files


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(ROOT, "e2ebench", "Cargo.toml")
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--manifest-path", manifest], env=env
    )
    if tests.returncode != 0:
        print("selftest: unit tests failed", file=sys.stderr)
        return 1

    before = snapshot()
    for workload, trace in WORKLOADS:
        run = subprocess.run(
            [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "40", "--trace", trace],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"selftest: {workload} exited {run.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            print(f"selftest: {workload} did not verify: {lines[-1]}", file=sys.stderr)
            return 1
        print(f"selftest: {workload} ok ({result['attempted']} attempted)")
    after = snapshot()

    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    if changed:
        print("selftest: the runs changed the working tree:", *changed, sep="\n  ", file=sys.stderr)
        return 1
    scratch = os.path.join(ROOT, ".bench_build", "e2ebench")
    leftovers = [n for n in os.listdir(scratch) if not n.startswith("trace-")]
    if leftovers:
        print(f"selftest: scratch left behind in {scratch}: {leftovers}", file=sys.stderr)
        return 1
    print("selftest: working tree unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
