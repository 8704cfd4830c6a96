#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Short runs of every workload, traced and untraced, check that each metric
BENCHMARK.json names is printed with its unit and that the output checks
pass; negative checks show that a corrupted pin is counted as a failed
operation and that the benchmark refuses to run without the simulator
sources. Scratch files go under .bench_build/selftest.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

ROOT = run.ROOT
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
SHORT = "1"


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(workload, seed, trace, cwd=ROOT, extra=()):
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run(
        ["python3", script, "--workload", workload, "--seed", str(seed),
         "--seconds", SHORT, "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Contract(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        bench = bench_json()
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))

    def test_inputs_follow_the_seed_and_are_pinned(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.make_inputs(workload, 7, 30),
                             run.make_inputs(workload, 7, 30))
            pins = run.load_pins(os.path.join(HERE, "pins"), workload)
            for token in run.make_inputs(workload, 7, 30):
                if workload == "chaos_sweep":
                    self.assertEqual(len(pins["digests"]), run.CHAOS_POOL)
                else:
                    self.assertIn(token, pins)


class ShortRuns(unittest.TestCase):
    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], names[name])
            self.assertIsInstance(metric["value"], (int, float))
        self.assertTrue(any(line.startswith("meta ")
                            for line in proc.stdout.splitlines()))
        self.assertTrue(any(line.startswith("host seconds, before speed normalisation")
                            for line in proc.stdout.splitlines()))
        return result

    def test_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_result(invoke(workload, 3, 0), run.END_TO_END)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                if workload != "chaos_sweep":
                    self.assertEqual(result["failed"], 0)

    def test_traced_run_prints_layers_and_writes_spans(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(invoke(workload, 3, 1), run.PER_LAYER)
                path = os.path.join(run.build_dir(), "traces",
                                    "%s-seed3.trace.json" % workload)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                for event in events:
                    self.assertEqual(event["ph"], "X")
                    self.assertGreaterEqual(event["dur"], 0)
                    self.assertIn("parent", event["args"])
                    self.assertIn("run", event["args"])

    def test_known_chaos_defect_counts_as_failed(self):
        # A short run makes one whole pass over the pool, whatever the seed
        # and the host's speed: every pinned node-without-placement scenario
        # is reported as a failed operation, with correct outputs.
        pins = run.load_pins(os.path.join(HERE, "pins"), "chaos_sweep")
        failing = set(pins["violations"]) | set(pins["setup_errors"])
        index = min(int(i) for i in pins["violations"])
        for seed in (0, 1):
            with self.subTest(seed=seed):
                proc = invoke("chaos_sweep", seed, 0)
                result = last_json(proc)
                self.assertTrue(result["correct"])
                self.assertEqual(result["attempted"], run.CHAOS_POOL)
                self.assertEqual(result["failed"], len(failing))
                self.assertIn("scenario %d seed" % index, proc.stdout)
                self.assertIn("node-without-placement", proc.stdout)


class Negative(unittest.TestCase):
    def test_corrupted_pin_fails_the_operation(self):
        pins = os.path.join(SCRATCH, "pins")
        shutil.rmtree(pins, ignore_errors=True)
        shutil.copytree(os.path.join(HERE, "pins"), pins)
        first = int(run.make_inputs("chaos_sweep", 5, 1)[0].split(":")[1])
        path = os.path.join(pins, "chaos_sweep_digests.txt")
        with open(path) as f:
            digests = f.read().split()
        digests[first] = "%016x" % (int(digests[first], 16) ^ 1)
        with open(path, "w") as f:
            f.write("\n".join(digests) + "\n")
        proc = invoke("chaos_sweep", 5, 0, extra=("--pins", pins))
        self.assertEqual(proc.returncode, 1)
        result = last_json(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("MISMATCH scenario %d digest" % first, proc.stdout)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke("traffic_flash_crowd", 0, 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    os.makedirs(SCRATCH, exist_ok=True)
    unittest.main()
