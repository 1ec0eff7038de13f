#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload dense_churn --seed 1 --seconds 30 --trace 0

The simulator library and the benchmark are compiled (Release) into
.bench_build/ at the repository root on first use and rebuilt incrementally
afterwards; build output goes to stderr. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1 (the traced run
also writes its spans to .bench_build/spans/). The exit code is non-zero
when the build fails or any output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("dense_churn", "rtp_trace", "eval_matrix")
# Time a workload process may take past --seconds: the benchmark always runs
# a minimum number of repetitions, which may overrun a short budget (the
# slowest traced round, eval_matrix, takes about 15 s on 4 vCPUs).
OVERRUN_S = 120


def build():
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--induce-failure", action="store_true",
                    help="corrupt one fingerprint (self-check only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload,
           "--spec", os.path.join(HERE, "specs", args.workload + ".json"),
           "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--trace", "--spans",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.induce_failure:
        cmd.append("--induce-failure")
    timeout = args.seconds + OVERRUN_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {timeout:g} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
