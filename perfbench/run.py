#!/usr/bin/env python3
"""Single-client SSI benchmark: build the engine and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (engine sources from src/ plus the ssibench program) with
CMake under $CARGO_TARGET_DIR (default .bench_build), runs the workload in
its own process and prints, as the last line of standard output, one JSON
object with "correct", "attempted", "failed" and "metrics". With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 a
second, traced process runs and the metrics are the per-layer ones, plus
trace.overhead (untraced over traced commits/s, minus 1). Build output and
progress go to standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run (both processes, when traced) must end within this many seconds.
RUN_BUDGET_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return False
    r = subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                       stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def run_workload(binary, args, trace, work_dir, trace_out, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left for the run"
    try:
        # subprocess.run kills and reaps the child on timeout.
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        return None, "workload timed out"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, "workload exited with code %d" % r.returncode
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, "workload printed no result line"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "db", "db.h")):
        return fail("engine sources (src/) not found next to perfbench/")
    if not os.path.isfile(spec_path):
        return fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload " + args.workload)

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    # The first run builds; its time does not count against the run.
    if not build(build_dir):
        return fail("build failed")
    deadline = time.monotonic() + RUN_BUDGET_S
    binary = os.path.join(build_dir, "ssibench")
    work_base = os.path.join(build_root, "work")
    os.makedirs(work_base, exist_ok=True)
    work = os.path.join(work_base, "%s-%d" % (args.workload, os.getpid()))

    untraced, err = run_workload(binary, args, False, work, None, deadline)
    if err:
        return fail(err)
    result = untraced
    wanted = spec["end_to_end"]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        # One file per workload: the latest traced run replaces it.
        trace_out = os.path.join(trace_dir, args.workload + ".tsv")
        traced, err = run_workload(binary, args, True, work, trace_out,
                                   deadline)
        if err:
            return fail(err)
        m = traced["metrics"]
        m["trace.overhead"] = {
            "value": untraced["metrics"]["commits_per_s"]["value"] /
            m["commits_per_s"]["value"] - 1.0,
            "unit": "ratio"}
        traced["correct"] = traced["correct"] and untraced["correct"]
        result = traced
        wanted = spec["per_layer"]

    metrics = {}
    for w in wanted:
        got = result["metrics"].get(w["name"])
        if got is None or got["unit"] != w["unit"]:
            result["correct"] = False
            print("perfbench: metric %s missing or in the wrong unit" %
                  w["name"], file=sys.stderr)
            continue
        metrics[w["name"]] = got
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
