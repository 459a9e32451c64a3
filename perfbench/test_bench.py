#!/usr/bin/env python3
"""The benchmark's own tests: every workload at reduced size.

    python3 perfbench/test_bench.py

Checks that each run passes its correctness check, that the metric
names and units printed are exactly those BENCHMARK.json declares, that
a second campaign seed also passes, and that a directory holding only
the benchmark fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(done):
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, done.stderr[-2000:]
    assert len(lines) >= 2, done.stdout
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


class WorkloadRuns(unittest.TestCase):
    def check(self, workload, seed, trace):
        meta, res = result(run(workload, seed, trace))
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], res)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertEqual(meta["campaign_seed"], seed)
        for key in ["nproc", "cpu_model", "commit", "samples", "raw_wall_s",
                    "host_factor", "campaign_fs"]:
            self.assertIn(key, meta)
        return res

    def test_every_workload_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = self.check(w["name"], 7, 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_a_second_seed_also_passes(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0xC0FFEE, 0)

    def test_traced_run_reports_every_layer(self):
        res = self.check(SPEC["workloads"][0]["name"], 7, 1)
        for w in SPEC["workloads"]:
            frac = res["metrics"][f"obs.attributed_frac.{w['name']}"]["value"]
            self.assertGreater(frac, 0.5, w["name"])


class IsolatedDirectory(unittest.TestCase):
    def test_fails_without_the_repository(self):
        # The benchmark's own files alone, in a scratch directory of the
        # checkout's ignored work area.
        alone = os.path.join(ROOT, ".bench_work", "isolated")
        if os.path.isdir(alone):
            shutil.rmtree(alone)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(alone, path))
        done = run(SPEC["workloads"][0]["name"], 1, 0, cwd=alone)
        shutil.rmtree(alone)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
