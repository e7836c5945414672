#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads rare_sdc_ci,exhaustive_tab2 \
        --runs 10 --first-seed 1

Runs each workload --runs times, each with its own seed, with the
run length from BENCHMARK.json, and prints per metric the median and
the interquartile range as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them) next to the metric's
bound. A spread above a third of its bound is flagged; setup_s is
exempt from the spread rule, as only its median has to repeat.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("spread.py: %s seed %d failed (exit %d)"
                         % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("spread.py: %s seed %d: not correct"
                         % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        print("%s (%d runs)" % (workload, len(runs)))
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            mid = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / mid if mid else float("inf")
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
            print("  %-16s median %-14.6g spread %.4f (bound %.2f)%s"
                  % (name, mid, spread, bound, flag))
            print("    " + " ".join("%.6g" % v for v in values))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
