#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny smoke size.

    python3 commbench/tests/test_commbench.py

Run from the repository root (or anywhere: paths resolve from this file).
They check that BENCHMARK.json is well formed and matches what the binary
prints, that every workload prints every metric by name with its unit, and
that each correctness check fires on a seeded corruption: a flipped matrix
cell, a truncated checkpoint and a frame whose ack never arrives.
"""
import json
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_SPEC = json.loads((BENCH / "spec.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Runnable and checked, but not gated (spec.json says why).
UNGATED = ["live-plain", "live-checkpoint"]
# The end-to-end metrics of the human table, by name (ok_frac is the gated
# form of failed_frac).
HUMAN_METRICS = ["setup_s", "events_per_s", "slowdown_x", "profiler_peak_mb",
                 "rss_peak_mb", "matrix_l1_err", "merge_epochs_per_s",
                 "ack_p50_ms", "ack_p99_ms", "recovery_s", "failed_frac"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, *extra, trace="0", cwd=ROOT):
    """Runs the benchmark at smoke size; returns (code, stdout, result)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", trace, "--smoke",
           *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return p.returncode, p.stdout, result


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_layer_map_covers_every_layer_metric(self):
        mapped = LAYER_SPEC["layer_map"]
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        for m in SPEC["per_layer"]:
            self.assertIn(m["name"], mapped)
            moves = mapped[m["name"]]["moves"]
            self.assertTrue(moves is None or moves in e2e
                            or moves in HUMAN_METRICS, moves)
        self.assertLessEqual(set(WORKLOADS), set(LAYER_SPEC["workloads"]))


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, catalog):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        want = {m["name"]: m["unit"] for m in catalog}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_every_workload_prints_every_metric(self):
        for w in WORKLOADS + UNGATED:
            with self.subTest(workload=w):
                code, out, result = run(w)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for name in HUMAN_METRICS:
                    self.assertRegex(out, rf"(?m)^{name} +\S+")
                self.assertIn("fingerprint: {", out)

    def test_traced_run_prints_every_layer_metric(self):
        for w in WORKLOADS + UNGATED:
            with self.subTest(workload=w):
                code, out, result = run(w, trace="1")
                self.assertEqual(code, 0, out)
                self.check_metrics(result, SPEC["per_layer"])
                out_dir = ROOT / ".bench_out"
                layers = json.loads(
                    (out_dir / f"{w}-seed7.layers.json").read_text())
                self.assertEqual(layers["result"]["metrics"].keys(),
                                 result["metrics"].keys())
                trace = json.loads(
                    (out_dir / f"{w}-seed7.trace.json").read_text())
                self.assertTrue(trace["traceEvents"])
                self.assertTrue(all(e["ph"] == "X" for e in trace["traceEvents"]))

    def expect_failure(self, workload, inject, message):
        code, out, result = run(workload, "--inject", inject)
        self.assertEqual(code, 1, out)
        self.assertIsNotNone(result, out)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn(message, out)

    def test_flipped_cell_fails_the_epoch_sum_check(self):
        self.expect_failure("live-features", "cell",
                            "epoch deltas do not sum to the final matrix")

    def test_flipped_cell_fails_the_checkpoint_check(self):
        self.expect_failure("live-checkpoint", "cell",
                            "final checkpoint matrix differs")

    def test_truncated_checkpoint_fails(self):
        self.expect_failure("live-checkpoint", "truncate",
                            "checkpoint reload failed")

    def test_flipped_cell_fails_the_merge_check(self):
        self.expect_failure("serve-ship", "cell",
                            "merged matrix differs from the sum")

    def test_lost_ack_fails_the_frame(self):
        self.expect_failure("serve-ship", "lost-ack",
                            "not acked on first attempt")

    def test_refuses_to_run_without_the_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, f"{BENCH.name}/run.py",
                            "--workload", WORKLOADS[0], "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True,
                           timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
