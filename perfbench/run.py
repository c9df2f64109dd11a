#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload bt|kmn|scan --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds the DeX libraries and the benchmark
program (perfbench/perfbench.cc) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs it under a deadline, and prints as the
last line of standard output one JSON object with the keys correct,
attempted, failed and metrics. A traced run (--trace 1) also writes its spans
as Chrome trace-event JSON under .bench_build/traces/.

A run that misses its deadline is killed; every operation of its unfinished
repetition counts as failed and the result reads correct=false. Exits non-zero, printing no result,
when the program cannot be built.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

START = time.monotonic()
# Deadlines for the whole run, build included: 170 s once the program is
# built, 880 s for the run that builds it.
RUN_DEADLINE_S = 170
FIRST_RUN_DEADLINE_S = 880
BUILD_DEADLINE_S = 780


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_DEADLINE_S)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["bt", "kmn", "scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    built_before = os.path.exists(os.path.join(build_dir, "perfbench"))
    try:
        if not build(root, build_dir):
            return 1
    except subprocess.TimeoutExpired:
        log("perfbench: build timed out")
        return 1
    deadline = START + (RUN_DEADLINE_S if built_before else FIRST_RUN_DEADLINE_S)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(target, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    bench = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    timed_out = False
    try:
        out, _ = bench.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(bench.pid, signal.SIGKILL)
        out, _ = bench.communicate()

    result = None
    attempted = failed = 0
    per_rep = 1  # operations in one repetition, once one has finished
    for line in out.splitlines():
        if line.startswith("REP "):
            rep = json.loads(line[4:])
            attempted += rep["attempted"]
            failed += rep["failed"]
            per_rep = rep["attempted"]
        elif line.startswith("RESULT "):
            result = json.loads(line[7:])
        else:
            print(line)

    if timed_out or bench.returncode != 0 or result is None:
        log("perfbench: the program %s" % ("missed its deadline" if timed_out else
                                           "exited with %s" % bench.returncode))
        # Every operation of the repetition that was running counts as failed.
        result = {"correct": False, "attempted": attempted + per_rep,
                  "failed": failed + per_rep, "metrics": {}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
