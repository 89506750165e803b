#!/usr/bin/env python3
"""ALF deploy-path benchmark entry point.

    python3 perfbench/run.py --workload offline_b32|wire_tiny|wire_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds libalf, alf_served and the benchmark from
source into .bench_build/perfbench (CMake, Release), runs the self-test of
the benchmark's helpers, then runs one workload. Build output goes to
stderr; the last line of stdout is the JSON result. Exits non-zero without
a result if the build, the self-test or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("offline_b32", "wire_tiny", "wire_mixed")
# The program under test runs with its defaults: these knobs would change
# backends, tuning or CPU features behind the benchmark's back.
ALF_KNOBS = ("ALF_BACKEND", "ALF_TUNE", "ALF_ALGO_CACHE", "ALF_CPU_DISABLE")


def sh(cmd, env):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: failed: %s\n" % " ".join(cmd))
        sys.exit(proc.returncode or 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if k not in ALF_KNOBS}
    jobs = str(min(4, os.cpu_count() or 1))
    sh(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], env)
    sh(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
        "perfbench_selftest", "alf_served"], env)
    sh([os.path.join(BUILD, "perfbench_selftest")], env)

    served = os.path.join(BUILD, "alf_root", "alf_served")
    work = os.path.join(ROOT, ".bench_build", "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--served", served, "--work", work]
    sys.stdout.flush()
    proc = subprocess.run(cmd, cwd=ROOT, env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
