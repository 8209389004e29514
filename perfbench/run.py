#!/usr/bin/env python3
"""Builds and runs the repo benchmark (README.md in this directory).

Run from the root of a checkout:

  python3 perfbench/run.py --workload explore --seed 1 --seconds 45 --trace 0
  python3 perfbench/run.py --smoke

The first form builds the program from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build), runs one workload and passes
its output through; the last line is the JSON result. --smoke runs
every workload at tiny sizes, untraced and traced, and checks that each
metric BENCHMARK.json names is printed with its unit and that no answer
was wrong.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
# Every workload the program runs. dashboard is not in BENCHMARK.json
# (README.md, "dashboard is not measured"), but --smoke still runs it.
WORKLOADS = ["explore", "dashboard", "ingest"]


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(exe, work_dir, args, capture):
    """Runs the measuring program once; returns (exit code, stdout)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work_dir, "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode, proc.stdout or ""


def smoke(exe, work_dir):
    """Every workload, untraced and traced, at tiny sizes: each metric of
    BENCHMARK.json must print with its unit, and nothing may fail."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=2,
                                      trace=trace, smoke=True)
            code, out = run_workload(exe, work_dir, args, capture=True)
            where = "%s --trace %d" % (workload, trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (where, code))
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if not result.get("correct") or result.get("failed") != 0:
                problems.append("%s: %s of %s answers failed" %
                                (where, result.get("failed"),
                                 result.get("attempted")))
            metrics = result.get("metrics", {})
            for name, unit in wanted[trace].items():
                got = metrics.get(name)
                if got is None or got.get("unit") != unit:
                    problems.append("%s: metric %s missing or not in %s" %
                                    (where, name, unit))
            for name in set(metrics) - set(wanted[trace]):
                problems.append("%s: metric %s not in BENCHMARK.json" %
                                (where, name))
            print("smoke %-22s %3d metrics, %d answers checked" %
                  (where, len(metrics), result.get("attempted", 0)))
    for p in problems:
        print("smoke FAIL " + p)
    print("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    # Terminated from outside: raising here makes subprocess.run kill
    # and reap the measuring program before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    if args.smoke:
        return smoke(exe, work_dir)
    code, _ = run_workload(exe, work_dir, args, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
