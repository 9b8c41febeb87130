"""Static checks of BENCHMARK.json and perfbench/predictions.json.

Run from this directory: python3 -m unittest -v test_contract
(python3 perfbench/run.py --test runs it after the C++ tests).
"""

import json
import re
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load(path):
    with open(path) as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.b = load(ROOT / "BENCHMARK.json")

    def test_keys(self):
        self.assertEqual(set(self.b), {"command", "paths", "run_seconds",
                                       "workloads", "end_to_end", "per_layer"})
        self.assertEqual(self.b["command"][0], "python3")
        self.assertTrue(1 <= self.b["run_seconds"] <= 60)

    def test_names_and_units(self):
        names = [w["name"] for w in self.b["workloads"]]
        for m in self.b["end_to_end"] + self.b["per_layer"]:
            names.append(m["name"])
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
        for n in names:
            self.assertTrue(NAME.fullmatch(n), n)
        self.assertEqual(len(names), len(set(names)))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.b["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertTrue(all(0 < v <= 0.25 for v in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_workloads_match_the_binary(self):
        src = (ROOT / "perfbench/cpp/workloads.cpp").read_text()
        for w in self.b["workloads"]:
            self.assertIn(f'name == "{w["name"]}"', src)
            self.assertNotIn("\n", w["why"])
            self.assertLessEqual(len(w["why"]), 200)


class Predictions(unittest.TestCase):
    def test_every_layer_metric_has_a_prediction(self):
        b = load(ROOT / "BENCHMARK.json")
        p = load(ROOT / "perfbench/predictions.json")["layers"]
        workloads = {w["name"] for w in b["workloads"]}
        e2e = {m["name"] for m in b["end_to_end"]}
        covered = []
        for module, entry in p.items():
            for name in entry["metrics"]:
                self.assertTrue(name.startswith(module + "."), name)
                covered.append(name)
            for move in entry["moves"]:
                self.assertIn(move["metric"], e2e)
                self.assertIn(move["workload"], workloads)
            for w in entry.get("no_change", []) + entry.get("little_change", []):
                self.assertIn(w, workloads)
        self.assertEqual(sorted(covered),
                         sorted(m["name"] for m in b["per_layer"]))


if __name__ == "__main__":
    unittest.main()
