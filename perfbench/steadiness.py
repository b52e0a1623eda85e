#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed, in two sets, and
prints for every end-to-end metric of each set its median and its
spread — the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median — against the
metric's bound in BENCHMARK.json. A spread above a third of the bound is
flagged; setup_s's spread is reported but not judged, since only its median
is compared between commits. Then the second set's median is compared with
the first set's: how much worse it is, as a share of the first median, must
stay within the bound for every metric, setup_s too.

    python3 perfbench/steadiness.py [--workloads join,select,serve]
        [--seeds 101,102,...] [--seconds S]

Exits 1 if a run fails, is incorrect, or a judged spread or median shift
reaches its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload, seed, seconds):
    """Returns the run's result line, or None if it printed none."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        print(proc.stderr)
        return None


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(101, 111)))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    ok = True
    # values[set][workload][metric] -> one value per seed
    values = []
    for n in range(SETS):
        values.append({})
        for workload in workloads:
            got = values[n][workload] = {name: [] for name in bounds}
            for seed in seeds:
                start = time.monotonic()
                result = run_once(workload, seed, args.seconds)
                elapsed = time.monotonic() - start
                if result is None:
                    print(f"set {n} {workload} seed {seed}: no result")
                    return 1
                if not result["correct"] or result["failed"]:
                    print(f"set {n} {workload} seed {seed}: incorrect "
                          f"({result['failed']} failed)")
                    ok = False
                for name in bounds:
                    got[name].append(result["metrics"][name]["value"])
                print(f"set {n} {workload} seed {seed} ({elapsed:.0f} s): " +
                      " ".join(f"{k}={v[-1]:.4g}" for k, v in got.items()),
                      flush=True)
            for name, vals in got.items():
                med, s = spread(vals)
                judged = name != "setup_s"
                flag = ""
                if judged and s >= bounds[name]:
                    flag = "OVER BOUND"
                    ok = False
                elif judged and s >= bounds[name] / 3:
                    flag = "above bound/3"
                print(f"set {n} {workload:6s} {name:12s} median={med:<12.6g} "
                      f"spread={s:7.4f} bound={bounds[name]:.2f} {flag}",
                      flush=True)
    for n in range(1, SETS):
        for workload in workloads:
            for name in bounds:
                first = statistics.median(values[0][workload][name])
                later = statistics.median(values[n][workload][name])
                change = (later - first) / first
                worse = change if better[name] == "lower" else -change
                flag = "OVER BOUND" if worse > bounds[name] else ""
                ok = ok and not flag
                print(f"set {n} vs 0 {workload:6s} {name:12s} "
                      f"median {first:<10.6g} -> {later:<10.6g} "
                      f"change={change:+7.4f} bound={bounds[name]:.2f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
