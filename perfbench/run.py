#!/usr/bin/env python3
"""Build and run the hompres benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is compiled from source
(release profile) into $CARGO_TARGET_DIR, default `.bench_build`, then
run; its last line of standard output is the JSON result. `all` runs
every workload of BENCHMARK.json in turn. Build output goes to standard
error. The exit status is the benchmark's: 0 on
success, 1 when a correctness check fails or a step cannot run, 2 on a
usage error.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def cargo(args, timeout):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path", MANIFEST]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: cargo {args[0]} timed out after {timeout}s", file=sys.stderr)
        return 1


def main(argv):
    if argv == ["--self-test"]:
        return cargo(["test", "--quiet"], BUILD_TIMEOUT_S)
    if cargo(["build", "--quiet"], BUILD_TIMEOUT_S) != 0:
        print("run.py: the benchmark does not build", file=sys.stderr)
        return 1
    return max(run(args) for args in expand(argv))


def expand(argv):
    """One argument list per workload: `--workload all` names every one."""
    at = argv.index("--workload") + 1 if "--workload" in argv else len(argv)
    if argv[at:at + 1] != ["all"]:
        return [argv]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    return [[*argv[:at], name, *argv[at + 1:]] for name in names]


def run(argv):
    binary = os.path.join(target_dir(), "release", "perfbench")
    # A short relative path keeps the Unix socket path within its limit.
    state = os.path.relpath(os.path.join(target_dir(), "perfbench"), ROOT)
    cmd = [binary, *argv, "--root", ".", "--state-dir", state]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: the benchmark ran past {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
