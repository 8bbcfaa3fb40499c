#!/usr/bin/env python3
"""Compares the end-to-end benchmark of two checkouts in alternating pairs.

    python3 tools/bench_compare.py --parent ../parent --change . \\
        --workloads read_mix,when_join --pairs 10 --seed 42 \\
        --claim read_mix:ops_per_s

For each named workload it runs `perfbench/run.py` of the parent checkout
and of the change checkout in turn, N times, alternating which side runs
first.  Each side builds into its own directory (CARGO_TARGET_DIR):
`.bench_build` inside its checkout, or `<build root>/parent` and
`<build root>/change` with --build-root.  A short warm-up run per side builds
the binaries before any timed pair.

For every end-to-end metric named in BENCHMARK.json it prints, per side, the
median, the quartiles and the fraction of pairs that side won (ties count
for neither side).  It then applies the metric's bound:

  - "better" when every change run beat every parent run;
  - "unresolved" when the spread within one side, (q3 - q1) / median,
    exceeds the bound;
  - "WORSE" when the change's median is worse than the parent's by more
    than the bound;
  - "ok" otherwise.

A `--claim workload:metric` is met when the change wins at least 9 of 10
pairs and the medians differ, in the better direction, by more than the
parent's interquartile range.  A run that reports `correct: false`, or a
larger share of failed operations on the change, is also flagged.

The exit status is 0 when nothing is flagged.  The script only reads
BENCHMARK.json and perfbench/ of the two checkouts; it writes nothing into
them apart from the build directories run.py creates when the build root is
left at its default.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, build_dir, workload, seed, seconds):
    """One run of perfbench/run.py; returns its parsed result line."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError("%s: run.py %s exited %d" %
                           (checkout, workload, proc.returncode))
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def better(metric, a, b):
    """True when value a is strictly better than b for `metric`."""
    return a > b if metric["better"] == "higher" else a < b


def judge(metric, parent, change):
    """Verdict for one metric: (label, relative change of the medians)."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    rel = (cm - pm) / pm if pm else 0.0
    worse = -rel if metric["better"] == "higher" else rel
    bound = metric["bound"]
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    if all(better(metric, c, p) for c in change for p in parent):
        return "better", rel
    if spread > bound:
        return "unresolved", rel
    return ("WORSE" if worse > bound else "ok"), rel


def claim_met(metric, parent, change):
    wins = sum(better(metric, c, p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gap = cm - pm if metric["better"] == "higher" else pm - cm
    return wins >= 0.9 * len(parent) and gap > p3 - p1, wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workloads", default="",
                    help="comma-separated; default every BENCHMARK.json "
                         "workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=0,
                    help="run length; default BENCHMARK.json's run_seconds")
    ap.add_argument("--build-root", default="",
                    help="directory holding the two build directories; "
                         "default .bench_build inside each checkout")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:METRIC")
    ap.add_argument("--json", default="", help="also write the runs here")
    args = ap.parse_args()

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    bench = load_benchmark(checkouts["change"])
    metrics = bench["end_to_end"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    builds = {}
    for side in SIDES:
        if args.build_root:
            builds[side] = os.path.join(os.path.abspath(args.build_root), side)
        else:
            builds[side] = os.path.join(checkouts[side], ".bench_build")
    claims = {}
    for c in args.claim:
        w, _, m = c.partition(":")
        claims.setdefault(w, []).append(m)

    flagged = False
    for side in SIDES:
        # Warm-up: builds the binary outside the timed pairs.
        run_once(checkouts[side], builds[side], workloads[0], args.seed, 0.5)

    report = {"seed": args.seed, "seconds": seconds, "pairs": args.pairs,
              "workloads": {}}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                r = run_once(checkouts[side], builds[side], workload,
                             args.seed, seconds)
                runs[side].append(r)
            print("%s pair %d/%d done" % (workload, i + 1, args.pairs),
                  file=sys.stderr)
        report["workloads"][workload] = runs

        print("\n== %s: %d pairs, seed %d, %g s per run" %
              (workload, args.pairs, args.seed, seconds))
        for side in SIDES:
            attempted = sum(r["attempted"] for r in runs[side])
            failed = sum(r["failed"] for r in runs[side])
            correct = all(r["correct"] for r in runs[side])
            print("%-7s correct=%s failed=%d/%d" %
                  (side, correct, failed, attempted))
            flagged |= not correct
        share = {s: sum(r["failed"] for r in runs[s]) /
                 max(1, sum(r["attempted"] for r in runs[s])) for s in SIDES}
        if share["change"] > share["parent"]:
            print("FLAG: a larger share of operations failed on the change")
            flagged = True
        print("%-12s %-7s %12s %12s %12s  %-5s %8s  %s" %
              ("metric", "side", "q1", "median", "q3", "wins", "change",
               "verdict"))
        for metric in metrics:
            name = metric["name"]
            vals = {s: [r["metrics"][name]["value"] for r in runs[s]]
                    for s in SIDES}
            pairs = list(zip(vals["parent"], vals["change"]))
            wins = {"parent": sum(better(metric, p, c) for p, c in pairs),
                    "change": sum(better(metric, c, p) for p, c in pairs)}
            verdict, rel = judge(metric, vals["parent"], vals["change"])
            flagged |= verdict == "WORSE"
            for side in SIDES:
                q1, q2, q3 = quartiles(vals[side])
                tail = ""
                if side == "change":
                    tail = "%+7.1f%%  %s (bound %g%%)" % (
                        100 * rel, verdict, 100 * metric["bound"])
                print("%-12s %-7s %12.3f %12.3f %12.3f  %-5s %s" %
                      (name if side == "parent" else "", side, q1, q2, q3,
                       "%d/%d" % (wins[side], args.pairs), tail))
            if name in claims.get(workload, []):
                met, w = claim_met(metric, vals["parent"], vals["change"])
                print("CLAIM %s:%s %s (change won %d/%d pairs; median gap "
                      "vs parent IQR)" % (workload, name,
                                          "met" if met else "NOT MET", w,
                                          args.pairs))
                flagged |= not met
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
