#!/usr/bin/env python3
"""wrpt-bench entry point: build the daemon and the load generator from
source, then drive one workload and print its result line.

    python3 wrptbench/run.py --workload hot-cached --seed 1 --seconds 24 --trace 0

Run it from the repository root. Build outputs, the daemon's socket and log,
and trace files go under $CARGO_TARGET_DIR (default .bench_build). The last
line of standard output is the JSON result; build logs go to standard error.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hot-cached", "optimize-then-simulate", "catalog-churn")
RUN_TIMEOUT_S = 170


def build(out_dir):
    """Configure (once) and build; returns the binary directory or None."""
    cmake_dir = os.path.join(out_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    r = subprocess.run(["cmake", "--build", cmake_dir, "-j", "4"],
                       stdout=sys.stderr, stderr=sys.stderr)
    return cmake_dir if r.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long phases and one set-up (tests only)")
    ap.add_argument("--digest", action="store_true",
                    help="print the seeded request stream's digest and exit")
    args = ap.parse_args()

    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bin_dir = build(out_dir)
    if bin_dir is None:
        print("wrpt-bench: build failed", file=sys.stderr)
        return 1
    run_dir = os.path.join(out_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(bin_dir, "wrpt_bench"),
           "--cli", os.path.join(bin_dir, "wrpt_cli"),
           "--run-dir", run_dir,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    if args.digest:
        cmd.append("--digest")
    # Own process group: whatever the generator leaves behind (its daemon,
    # if the generator died or overran) is stopped with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("wrpt-bench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    stop_group(proc)
    return code


def stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)

if __name__ == "__main__":
    sys.exit(main())
