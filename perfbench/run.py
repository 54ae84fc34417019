#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark.

    python3 perfbench/run.py --workload <ingest|audit|mixed|loopback>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call builds the program's
sources (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only relink what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
--smoke runs every workload for a few seconds, untraced and traced, with
every check on, and fails if any run fails. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ingest", "audit", "mixed", "loopback"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed")
    return out


def run_once(out, workload, seed, seconds, trace):
    env = dict(os.environ)
    # One modexp worker per daemon keeps the loopback run's five processes
    # within four cores. The in-process workloads get two: with four, one
    # core taken by another process stalls every parallel batch, and
    # run-to-run spread doubled on a shared 4-core machine.
    threads = 1 if workload == "loopback" else min(2, os.cpu_count() or 1)
    env["DLA_MODEXP_THREADS"] = str(threads)
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--scratch", os.path.join(out, "data"),
           "--noded", os.path.join(out, "pb_noded")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s run exceeded its time limit" % workload)
    return proc.returncode


def smoke(out):
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code = run_once(out, workload, 1, 3, trace)
            print("smoke %s trace=%d: %s" % (workload, trace,
                                            "ok" if code == 0 else "FAILED"),
                  file=sys.stderr)
            failures += code != 0
    if failures:
        sys.exit("perfbench: %d smoke runs failed" % failures)
    print(json.dumps({"smoke": "ok"}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    out = build()
    if args.smoke:
        smoke(out)
        return
    sys.exit(run_once(out, args.workload, args.seed, args.seconds,
                      args.trace))


if __name__ == "__main__":
    main()
