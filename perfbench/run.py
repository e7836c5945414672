#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload rare_sdc_ci --seed 1 \
        --seconds 20 --trace 0

The library and the campaign_bench program are configured and built into
.bench_build/ (an incremental no-op after the first run). All
arguments go to the campaign_bench binary; its standard output is
passed through, so the last line is the JSON result. Build output goes
to standard error. The exit code is the binary's, or non-zero when the
build fails or the run overruns its time limit, which grows with
--seconds (a fixed margin for set-up, checks and the traced replay, plus
three times the timed phase).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "campaign_bench")
RUN_MARGIN_S = 110
DEFAULT_SECONDS = 20.0


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "campaign_bench",
         "--parallel", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            return done.returncode
    return 0


def trace_out(args):
    """Default the Chrome trace into the build directory."""
    if "--trace-out" in args:
        return []
    workload = "run"
    if "--workload" in args:
        i = args.index("--workload")
        if i + 1 < len(args):
            workload = os.path.basename(args[i + 1])
    return ["--trace-out", os.path.join(BUILD, "trace-%s.json" % workload)]


def run_timeout(args):
    """Seconds the campaign_bench run may take before it is stopped."""
    seconds = DEFAULT_SECONDS
    if "--seconds" in args:
        i = args.index("--seconds")
        try:
            seconds = max(0.0, float(args[i + 1]))
        except (IndexError, ValueError):
            pass  # campaign_bench rejects the bad value itself
    return RUN_MARGIN_S + 3 * seconds


def main():
    status = build()
    if status != 0:
        print("run.py: build failed", file=sys.stderr)
        return status or 1
    args = sys.argv[1:]
    timeout = run_timeout(args)
    try:
        done = subprocess.run([BINARY] + args + trace_out(args), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("run.py: campaign_bench overran %g s" % timeout,
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
