#!/usr/bin/env python3
"""Builds pimsched and its load generator from this checkout, runs one
benchmark run, and prints the run's JSON result as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json at the repository root
and explained in perfbench/README.md. The build goes to .bench_build/perfbench
(configured once, rebuilt incrementally on every run); sockets and daemon
logs go to a per-run directory under .bench_build that is removed afterwards;
span files of traced runs are kept in .bench_build/spans.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_BASE = ".bench_build"
BUILD_DIR = os.path.join(BUILD_BASE, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once and rebuilds the programs the benchmark runs."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs,
         "--target", "perfbench", "pimsched_served", "pimsched_cli"],
        check=True, stdout=sys.stderr)
    examples = os.path.join(BUILD_DIR, "pimsched", "examples")
    served = os.path.join(examples, "pimsched_served")
    cli = os.path.join(examples, "pimsched_cli")
    loadgen = os.path.join(BUILD_DIR, "perfbench")
    for path in (served, cli, loadgen):
        if not os.access(path, os.X_OK):
            raise RuntimeError("build did not produce " + path)
    return loadgen, served, cli


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    try:
        loadgen, served, cli = build()
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log("build failed: %s" % e)
        return 1

    # A short relative path: Unix socket paths are limited to 107 bytes.
    work_dir = os.path.join(BUILD_BASE, "run-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--served", served, "--cli", cli, "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        out = ""
    finally:
        # The load generator reaps its daemons; this catches any it left
        # behind when it crashed or timed out.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        spans_dir = os.path.join(BUILD_BASE, "spans")
        for name in os.listdir(work_dir):
            if name.startswith("spans-"):
                os.makedirs(spans_dir, exist_ok=True)
                os.replace(os.path.join(work_dir, name),
                           os.path.join(spans_dir, name))
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines or not lines[-1].startswith("{"):
        log("run failed with exit code %s and no result" % proc.returncode)
        return 1
    # A run whose checks failed still reports, with "correct": false, and
    # exits nonzero.
    print(lines[-1], flush=True)
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
