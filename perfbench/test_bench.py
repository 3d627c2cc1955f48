#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size, both modes.

    python3 perfbench/test_bench.py

Checks that every metric `BENCHMARK.json` names is printed with its unit,
that the per-layer mapping in `spec.json` names existing metrics and
workloads, and that the capacity workloads never reach the render or
detect layers.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))
SPEC = load(os.path.join(HERE, "spec.json"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def quick_run(workload, trace):
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "0", "--trace", str(trace), "--quick",
    ]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    return run.returncode, json.loads(run.stdout.strip().splitlines()[-1])


class QuickRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, result = quick_run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, wanted)
                    if workload.startswith("capacity_") and trace == 1:
                        self.assertEqual(result["metrics"]["detect.calls"]["value"], 0)
                        self.assertEqual(result["metrics"]["channel.render_calls"]["value"], 0)

    def test_unknown_workload_fails_without_a_result(self):
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "0", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False,
        )
        self.assertNotEqual(run.returncode, 0)
        self.assertEqual(run.stdout.strip(), "")


class Spec(unittest.TestCase):
    def test_workloads_match(self):
        self.assertEqual(sorted(SPEC["workloads"]), sorted(WORKLOADS))
        for name, w in SPEC["workloads"].items():
            with self.subTest(workload=name):
                for key in ("why", "loop", "threads", "seed", "sizes", "default_seed_quality"):
                    self.assertIn(key, w)
                self.assertEqual(sorted(w["default_seed_quality"]),
                                 sorted(["resolved_pct", "range_err_m", "round_ok_pct"]))

    def test_per_layer_mapping_names_existing_metrics_and_workloads(self):
        self.assertEqual(sorted(SPEC["per_layer"]), sorted(PER_LAYER))
        for name, entry in SPEC["per_layer"].items():
            with self.subTest(metric=name):
                for target in entry["moves"]:
                    self.assertIn(target["metric"], {**END_TO_END, **PER_LAYER})
                    self.assertTrue(target["workloads"])
                    for w in target["workloads"]:
                        self.assertIn(w, WORKLOADS)
                for w in entry.get("unmoved_on", []):
                    self.assertIn(w, WORKLOADS)
                if not entry["moves"]:
                    self.assertTrue(entry.get("note"))

    def test_baseline_covers_every_end_to_end_metric(self):
        base = SPEC["baseline"]
        self.assertGreaterEqual(base["nproc"], 1)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(sorted(base["medians"][workload]), sorted(END_TO_END))


if __name__ == "__main__":
    unittest.main()
