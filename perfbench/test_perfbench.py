#!/usr/bin/env python3
"""Tests of the benchmark itself, on the tiny sizes of every workload.

    python3 perfbench/test_perfbench.py        # from the repository root

Checks that each workload passes its correctness gates, that run.py prints
every metric BENCHMARK.json names with its unit and sample count, that the
final line follows the result format, that the sim-clock numbers and the
fleet placement digest repeat exactly for a seed, and that the benchmark
fails without the program's sources. Builds into .bench_build like run.py.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

_cache = {}


def bench(workload, trace, seed=5, seconds=1.0, cwd=ROOT):
    key = (workload, trace, seed, seconds, cwd)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)] + (["--tiny"] if cwd == ROOT else []),
            cwd=cwd, capture_output=True, text=True, timeout=600)
        _cache[key] = proc
    return _cache[key]


def result_of(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


def reported(proc, name):
    """(value, unit, samples) from run.py's metric lines."""
    m = re.search(r"^  %s\s+(\S+)\s+(\S+)\s+n=(\d+)$" % re.escape(name),
                  proc.stdout, re.M)
    return (float(m.group(1)), m.group(2), int(m.group(3))) if m else None


class SpecTest(unittest.TestCase):
    def test_lists_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([m["name"] for m in SPEC["end_to_end"]],
                         list(run.E2E))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         [(n, u) for n, u, _ in run.PER_LAYER])
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


class WorkloadTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr)
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in spec})
        owners = {n: o for n, _, o in run.PER_LAYER}
        for m in spec:
            got = res["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            line = reported(proc, m["name"])
            self.assertIsNotNone(line, "no report line for " + m["name"])
            self.assertEqual(line[1], m["unit"])
            if not trace or workload in owners[m["name"]]:
                self.assertGreaterEqual(line[2], 1, m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return proc

    def test_end_to_end_runs(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0)

    def test_traced_runs(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                proc = self.check_run(w, 1)
                for fact in ("nproc", "pool_threads", "build_type",
                             "compiler", "seed"):
                    self.assertRegex(proc.stdout, r"\n  %s\s+\S" % fact)

    def test_sim_numbers_repeat_exactly(self):
        sim = [n for n, u, _ in run.PER_LAYER if u == "sim_s"]
        for w in run.SIMS:
            with self.subTest(workload=w):
                a, b = bench(w, 1), bench(w, 1, seconds=1.5)
                ma, mb = result_of(a)["metrics"], result_of(b)["metrics"]
                for name in sim:
                    self.assertEqual(ma[name], mb[name], name)
                digest = {"fleet_campaign": "fleet.digest",
                          "beamline_shift": "shift.digest"}[w]
                da = re.search(digest + r"\s+(\w+)", a.stdout).group(1)
                db = re.search(digest + r"\s+(\w+)", b.stdout).group(1)
                self.assertEqual(da, db)
                self.assertEqual(ma["sched.failovers"], mb["sched.failovers"])

    def test_fails_without_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("fleet_campaign", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
