#!/usr/bin/env python3
"""Smoke tests of wrpt-bench itself: seconds-long phases on every workload.

    python3 -m unittest discover -s wrptbench/tests -v

Run from the repository root (the benchmark builds into .bench_build on first
use). Checks that every metric named in BENCHMARK.json is reported with its
unit, end to end and traced, that no request fails its reference check, and
that a seed names one request stream.
"""
import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# catalog-churn is not in BENCHMARK.json (see the README) but still runs.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["catalog-churn"]


def bench(*args):
    p = subprocess.run(SPEC["command"] + list(args), cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError("exit %d: %s" % (p.returncode, p.stderr[-2000:]))
    return p.stdout.strip().splitlines()


def smoke(workload, trace):
    lines = bench("--workload", workload, "--seed", "7", "--seconds", "8",
                  "--trace", str(trace), "--smoke")
    return json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # failed_share is 0
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(smoke(w, 0), SPEC["end_to_end"])

    def test_traced_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(smoke(w, 1), SPEC["per_layer"])

    def test_seed_names_the_request_stream(self):
        def digest(workload, seed):
            return bench("--workload", workload, "--seed", str(seed),
                         "--seconds", "20", "--digest")[-1]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(digest(w, 11), digest(w, 11))
                self.assertNotEqual(digest(w, 11), digest(w, 12))


if __name__ == "__main__":
    unittest.main()
