#!/usr/bin/env python3
"""Check how steady the benchmark's end-to-end metrics are across seeds.

    python3 perfbench/steady.py [WORKLOAD ...]

Runs `perfbench/run.py` (tracing off) once for each of the seeds 1 to 10
and for each workload (default: all of BENCHMARK.json's), then prints,
per metric, the median and the spread: the distance between the first
and third quartile of the ten values (Python's
`statistics.quantiles(values, n=4)`) as a share of their median, next to
the metric's bound from BENCHMARK.json. A spread above a third of its
bound is flagged, and one above the bound itself more loudly. Each
workload is also run once with the default seed, whose values are
printed beside the medians. Exits with status 1 if any spread is
flagged. Run from the repository root.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
DEFAULT_SEED = 15059486  # 0xE5CA1E, the benchmark's default


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for w in workloads:
        results = [run_once(w, seed, bench["run_seconds"]) for seed in SEEDS]
        default = run_once(w, DEFAULT_SEED, bench["run_seconds"])["metrics"]
        print(f"{w} (seeds {SEEDS.start}-{SEEDS.stop - 1}; default seed {DEFAULT_SEED})", flush=True)
        for name, bound in bounds.items():
            med, s = spread([r["metrics"][name]["value"] for r in results])
            flag = ""
            if s > bound:
                flag = "  <-- ABOVE BOUND"
            elif s > bound / 3:
                flag = "  <-- above bound/3"
            steady &= flag == ""
            print(f"  {name:<14} median {med:>12.4f}  spread {s:6.3f}  bound {bound}"
                  f"  default seed {default[name]['value']:>12.4f}{flag}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
