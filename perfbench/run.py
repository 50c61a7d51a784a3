#!/usr/bin/env python3
"""Build and run the fairmpi wall-clock benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode, offline, into
$CARGO_TARGET_DIR (`.bench_build` when unset), runs it with the given
arguments, checks the shape of its result line and prints its output. The
last line printed is the JSON result; the exit code is 0 only when a
well-formed result was printed.
"""

import json
import os
import subprocess
import sys

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    """Build the benchmark; return the path of its executable."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST,
           "--message-format", "json-render-diagnostics"]
    try:
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if out.returncode != 0:
        fail(f"build failed with exit code {out.returncode}")
    for line in out.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            return msg["executable"]
    fail("build produced no executable")


def check_result(line):
    """Fail unless `line` is a well-formed result object."""
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line!r}")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {line!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive whole number")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail(f"malformed metric {name}: {m}")


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    exe = build(env)
    try:
        out = subprocess.run([exe] + sys.argv[1:], stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark ran longer than {RUN_TIMEOUT_S} s")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"benchmark failed with exit code {out.returncode}")
    check_result(lines[-1])
    print("\n".join(lines))


if __name__ == "__main__":
    main()
