#!/usr/bin/env python3
"""Steadiness check for wrpt-bench: run each workload N times with distinct
seeds and print every metric's median, quartiles and spread against the bound
in BENCHMARK.json. A spread wider than its bound is flagged.

    python3 wrptbench/steady.py --runs 10                   # every workload
    python3 wrptbench/steady.py --runs 5 --workload catalog-churn
    python3 wrptbench/steady.py --runs 10 --sets 2          # + agreement

With --sets 2 a second set of runs (fresh seeds) follows the first, and each
metric's second median is compared with the first: worse by more than the
bound is flagged. Run it from the repository root. Exit status 1 when
anything is flagged or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed, p.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: correct=%s failed=%d" % (
            workload, seed, result["correct"], result["failed"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(spec, workload, seeds, seconds, trace):
    runs = []
    for seed in seeds:
        t0 = time.monotonic()
        runs.append(run_once(spec, workload, seed, seconds, trace))
        print("  %s seed %d done in %.1f s" % (workload, seed, time.monotonic() - t0),
              file=sys.stderr)
    return {name: [r[name] for r in runs] for name in runs[0]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--values", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    flagged = False
    for wi, workload in enumerate(workloads):
        base = args.seed_base + 1000 * wi
        sets = []
        for s in range(args.sets):
            seeds = [base + 100 * s + i for i in range(args.runs)]
            sets.append(run_set(spec, workload, seeds, seconds, args.trace))
        print("\n%s (%d runs x %d sets)" % (workload, args.runs, args.sets))
        print("  %-34s %3s %14s %14s %14s %8s %6s %s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound", "agree"))
        for name in sets[0]:
            m = metrics.get(name)
            bound = m["bound"] if m else None
            for si, vs in enumerate(sets):
                q1, med, q3 = quartiles(vs[name])
                spread = (q3 - q1) / med if med else float("inf")
                note = ""
                if bound is not None and spread > bound:
                    note += " SPREAD>BOUND"
                    flagged = True
                elif bound is not None and spread > bound / 3:
                    note += " (spread > bound/3)"
                agree = ""
                if si == 1 and bound is not None:
                    med1 = statistics.median(sets[0][name])
                    worse = (med - med1) / med1 if m["better"] == "lower" else (med1 - med) / med1
                    agree = "%+.3f" % worse
                    if worse > bound:
                        note += " DISAGREE"
                        flagged = True
                print("  %-34s %3d %14.6g %14.6g %14.6g %8.3f %6s %s%s" % (
                    name if si == 0 else "", si + 1, q1, med, q3, spread,
                    "-" if bound is None else "%.2f" % bound, agree, note))
                if args.values:
                    print("  %38s %s" % ("", " ".join("%.5g" % v for v in vs[name])))
    return 1 if flagged else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print("steady: %s" % e, file=sys.stderr)
        sys.exit(1)
