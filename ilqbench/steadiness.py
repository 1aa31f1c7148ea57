#!/usr/bin/env python3
"""Runs the benchmark repeatedly and prints each end-to-end metric's spread
against its bound in BENCHMARK.json.

    python3 ilqbench/steadiness.py [--runs 10] [--first-seed 1]
                                   [--workloads a,b] [--seconds S]
    python3 ilqbench/steadiness.py --self-test

For every workload it runs `run.py` once per seed (seeds first-seed,
first-seed + 1, ...), then reports per metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread: the interquartile
distance as a share of the median. A spread within a third of the bound is
"steady"; within the bound "ok"; above it "WIDE" (setup_s is exempt from the
spread rule, only its median is compared between sets). It also checks that
every run was correct and that failed/attempted is the same in every run.
Exit status 1 when a run fails or a spread is wide.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of numbers."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(name, share, bound):
    if name == "setup_s":
        return "exempt"
    if share <= bound / 3:
        return "steady"
    return "ok" if share <= bound else "WIDE"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "ilqbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def self_test():
    med, q1, q3, share = spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, med, q3) == (2.75, 5.5, 8.25), (q1, med, q3)
    assert abs(share - 1.0) < 1e-12
    assert spread([4.0] * 5)[3] == 0.0
    assert verdict("x", 0.01, 0.15) == "steady"
    assert verdict("x", 0.10, 0.15) == "ok"
    assert verdict("x", 0.20, 0.15) == "WIDE"
    assert verdict("setup_s", 9.0, 0.25) == "exempt"
    print("steadiness self-test: all passed")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                results.append(run_once(workload, seed, seconds))
            except RuntimeError as e:
                print(f"{workload}: {e}")
                status = 1
        if not results:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, all correct: {correct}, "
              f"failed shares: {sorted(shares)}")
        if not correct or len(shares) != 1:
            status = 1
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, share = spread(values)
            v = verdict(name, share, bound)
            if v == "WIDE":
                status = 1
            print(f"  {name:<18} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{share:>8.4f} {bound:>6.2f}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())
