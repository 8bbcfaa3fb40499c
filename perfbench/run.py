#!/usr/bin/env python3
"""Builds and runs the temporadb end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It compiles the engine from ./src together
with perfbench/main.cpp (CMake, Release build) into the directory named by
the CARGO_TARGET_DIR environment variable, default .bench_build.  Each run's
database lives in a fresh directory under it and is removed afterwards;
with --trace 1 the spans are kept in <build dir>/traces/.

Build output goes to standard error.  The last line of standard output is
the result: one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "read_mix", "when_join")
# A run takes well under a minute on a 4-core host; the limit only stops a
# hung run.
RUN_TIMEOUT_S = 170


def build(build_dir):
    obj = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(obj, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", obj, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", obj, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(obj, "tdb_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no engine sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    run_dir = os.path.join(build_dir, "runs",
                           "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(run_dir, "db")]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    os.makedirs(run_dir, exist_ok=True)
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
