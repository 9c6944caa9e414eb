#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  bench.exe is built with dune in the
release profile into .bench_build/ (nothing is written outside the
repository), then runs the workload; its last output line is the JSON
result.  Build output goes to stderr.  The exit code is bench.exe's:
0 when every output check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
PROFILE = "release"
WORKLOADS = ["explore-sym", "explore-persist", "explore-exact", "service-poisson"]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances and a sub-second service window")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("run.py: no dune-project in %s; the library sources are missing" % ROOT,
              file=sys.stderr)
        return 2
    # dune from PATH, else through opam when the switch is not on PATH
    dune = ["dune"] if shutil.which("dune") or not shutil.which("opam") \
        else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "--profile", PROFILE, "--build-dir", BUILD_DIR,
                "--cache=disabled", "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    spans_dir = os.path.join(ROOT, BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", spans_dir, "--commit", commit(),
           "--nproc", str(len(os.sched_getaffinity(0))), "--profile", PROFILE]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("run.py: bench.exe overran 175 s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
