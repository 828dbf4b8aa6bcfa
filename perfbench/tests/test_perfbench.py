"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds the binary through run.py (about a minute on
4 cores); the sim digest test runs two short sim_sched runs (about 20 s
each).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    return subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, universal_newlines=True,
                          timeout=900)


def binary_path():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, build, "lf_perfbench")


def metric_defs_in_source(list_name):
    """(name, unit) pairs of one metric list in src/common.cpp."""
    with open(os.path.join(BENCH_DIR, "src", "common.cpp")) as f:
        src = f.read()
    block = src[src.index(list_name + " = {"):]
    block = block[:block.index("};")]
    return re.findall(r'\{"([^"]+)", "([^"]+)"\}', block)


class ContractTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        bench = load_benchmark()
        for key, list_name in (("end_to_end", "k_end_to_end_metrics"),
                               ("per_layer", "k_per_layer_metrics")):
            want = [(m["name"], m["unit"]) for m in bench[key]]
            self.assertEqual(metric_defs_in_source(list_name), want, key)

    def test_benchmark_json_shape(self):
        bench = load_benchmark()
        self.assertEqual(sorted(bench), sorted(
            ["command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"]))
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


class ArgumentTest(unittest.TestCase):
    GARBAGE = [
        [],
        ["--workload", "rt_churn", "--seed", "1", "--seconds", "1"],
        ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
        ["--workload", "rt_churn", "--seed", "abc", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "rt_churn", "--seed", "-1", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "rt_churn", "--seed", "1e3", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "rt_churn", "--seed", "99999999999999999999999",
         "--seconds", "1", "--trace", "0"],
        ["--workload", "rt_churn", "--seed", "1", "--seconds", "0",
         "--trace", "0"],
        ["--workload", "rt_churn", "--seed", "1", "--seconds", "1.5",
         "--trace", "0"],
        ["--workload", "rt_churn", "--seed", "1", "--seconds", "100000",
         "--trace", "0"],
        ["--workload", "rt_churn", "--seed", "1", "--seconds", "1",
         "--trace", "2"],
        ["--workload", "rt_churn", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--bogus", "1"],
        ["--workload", "rt_churn", "--seed", "1", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
    ]

    def test_run_py_rejects_garbage(self):
        for args in self.GARBAGE:
            p = run(args)
            self.assertEqual(p.returncode, 2, (args, p.stderr))
            self.assertEqual(p.stdout, "", args)

    def test_binary_rejects_garbage(self):
        self.assertEqual(run(["--workload", "rt_churn", "--seed", "1",
                              "--seconds", "1", "--trace", "0"]).returncode, 0)
        for args in self.GARBAGE:
            p = subprocess.run([binary_path()] + args, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, universal_newlines=True)
            self.assertEqual(p.returncode, 2, (args, p.stderr))
            self.assertEqual(p.stdout, "", args)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT)) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "rt_churn",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, universal_newlines=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


class RunTest(unittest.TestCase):
    def result(self, p):
        self.assertEqual(p.returncode, 0, p.stderr)
        return json.loads(p.stdout.strip().split("\n")[-1])

    def test_emitted_metric_names_match(self):
        bench = load_benchmark()
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            r = self.result(run(["--workload", "rt_churn", "--seed", "1",
                                 "--seconds", "1", "--trace", trace]))
            self.assertTrue(r["correct"])
            self.assertGreater(r["attempted"], 0)
            self.assertEqual(r["failed"], 0)
            self.assertEqual(list(r["metrics"]),
                             [m["name"] for m in bench[key]])
            for m in bench[key]:
                self.assertEqual(r["metrics"][m["name"]]["unit"], m["unit"])

    def test_sim_digest_repeats_for_one_seed(self):
        digests = []
        for _ in range(2):
            p = run(["--workload", "sim_sched", "--seed", "5",
                     "--seconds", "1", "--trace", "0"])
            self.assertEqual(p.returncode, 0, p.stderr)
            lines = [l.strip() for l in p.stdout.split("\n")
                     if l.strip().startswith("digest ")]
            self.assertGreater(len(lines), 0)
            digests.append(lines)
        self.assertEqual(digests[0], digests[1])


if __name__ == "__main__":
    unittest.main()
