#!/usr/bin/env python3
"""Self-tests of the repository benchmark, on its quick small-mu inputs.

    python3 perfbench/test_perfbench.py

Checks that every workload prints exactly the metric names and units of
BENCHMARK.json in both modes, that the output checks pass on honest runs and
fail on tampered ones, that the traced proof's spans cover the proof, and
that the benchmark refuses to run without the repository's sources.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Fig. 12a category spans plus witness synthesis: the traced proof's parts.
PROOF_SPANS = ["hyperplonk.witness_synth_ms", "pcs.witness_commit_ms",
               "sumcheck.gate_zerocheck_ms", "hyperplonk.perm_fractions_ms",
               "sumcheck.product_tree_ms", "pcs.perm_commit_ms",
               "sumcheck.permcheck_ms", "poly.batch_eval_ms",
               "sumcheck.opencheck_ms", "pcs.mle_combine_ms",
               "pcs.opening_ms"]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result


class MetricContract(unittest.TestCase):
    def check_metrics(self, result, spec_key):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        expected = [(m["name"], m["unit"]) for m in SPEC[spec_key]]
        got = [(name, m["unit"]) for name, m in result["metrics"].items()]
        self.assertEqual(got, expected)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 0, "--quick")
                self.assertEqual(code, 0)
                self.check_metrics(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_runs_report_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 1, "--quick")
                self.assertEqual(code, 0)
                self.check_metrics(result, "per_layer")
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(m["host.copy_gbs"], 0)
                if workload == "vanilla-prove-mu14":
                    covered = sum(m[s] for s in PROOF_SPANS)
                    self.assertAlmostEqual(covered / m["hyperplonk.proof_ms"],
                                           1.0, delta=0.05)
                    self.assertGreater(m["ec.point_adds"], 0)
                    # Streaming leaves the transcript unchanged, so only the
                    # store counters show which path ran.
                    self.assertEqual(m["poly.mapped_bytes"], 0)
                    self.assertGreater(m["poly.streamed_mapped_bytes"], 0)
                    self.assertGreater(m["hyperplonk.streamed_proof_ms"], 0)
                    for gate in ("jf_zerocheck", "cadd6", "sweep_d15",
                                 "opencheck"):
                        self.assertGreater(m[f"sumcheck.{gate}.prove_ms"], 0)
                        self.assertGreater(m[f"sumcheck.{gate}.field_muls"],
                                           0)
                if workload == "service-mix":
                    self.assertGreater(m["engine.small_samples"], 0)


class OutputChecks(unittest.TestCase):
    def test_tampered_output_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 0, "--quick", "--tamper")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_sources(self):
        bare = ROOT / ".bench_build" / "bare-check"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = run(WORKLOADS[0], 0, "--quick", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
