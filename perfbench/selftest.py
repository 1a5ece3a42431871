#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of Bolt):

  * the correctness gate: one corrupted output fails the run, with
    failed > 0 and a non-zero exit, on the closed and the open loop;
  * the collector counts a 1x1 stride-1 NHWC conv once, although
    cpukernels records it in both cpu.conv.* and cpu.gemm.*;
  * a traced run of a real workload (bert_m256) passes its consistency
    checks, and a disagreement between bolt.cpu spans and registry
    deltas is caught;
  * compare.py refuses results whose fingerprints differ.

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import collect  # noqa: E402
import compare  # noqa: E402

ROOT = HERE.parent


def run_bench(*args):
    """Runs run.py; returns (exit code, final JSON line, stdout)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, \
        proc.stdout


class CorrectnessGate(unittest.TestCase):
    def check_fails(self, workload):
        code, result, out = run_bench("--workload", workload, "--seed", "5",
                                      "--seconds", "0.5", "--trace", "0",
                                      "--perturb-op", "1")
        self.assertNotEqual(code, 0, out)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("fail_ratio: ", out)
        self.assertNotIn("fail_ratio: 0 ", out)

    def test_perturbed_closed_loop_output_fails(self):
        self.check_fails("pointwise_conv")

    def test_perturbed_served_output_fails(self):
        self.check_fails("mlp_serve")

    def test_clean_run_passes(self):
        code, result, out = run_bench("--workload", "pointwise_conv",
                                      "--seed", "5", "--seconds", "0.5",
                                      "--trace", "0")
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(collect.END_TO_END))


class PointwiseConvCountedOnce(unittest.TestCase):
    M, N, K = 16 * 16, 64, 64  # the pointwise_conv graph

    def test_traced_run(self):
        code, result, out = run_bench("--workload", "pointwise_conv",
                                      "--seed", "6", "--seconds", "1",
                                      "--trace", "1")
        self.assertEqual(code, 0, out)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(m["cpukernels.launches"], 1.0)
        # The raw counters see every launch twice.
        report = json.loads(
            (ROOT / ".bench_build/runs/pointwise_conv-seed6-trace1/"
             "report.json").read_text())
        ph = [p for p in report["phases"] if p["traced"]][0]
        reg = ph["registry"]
        self.assertEqual(reg["cpu.conv.launches"], ph["attempted"])
        self.assertEqual(reg["cpu.gemm.launches"], ph["attempted"])
        kc = collect.kernel_counts(reg, ph["attempted"], report["graph"])
        self.assertEqual(kc["flops"], 2 * self.M * self.N * self.K *
                         ph["attempted"])
        # Registry-derived busy time agrees with the bolt.cpu spans, and
        # host + busy is the Run time.
        self.assertAlmostEqual(m["cpukernels.busy_us"],
                               m["cpukernels.span_busy_us"],
                               delta=0.1 * m["cpukernels.span_busy_us"])
        self.assertAlmostEqual(m["engine.host_us"] + m["cpukernels.busy_us"],
                               m["engine.run_us"], places=6)

    def test_mixed_graph_counts(self):
        # Two pointwise convs and one plain GEMM per op, 10 ops.
        ops, pw_flops, gemm_flops = 10, 100.0, 300.0
        reg = {
            "cpu.conv.launches": 2 * ops, "cpu.conv.flops": pw_flops * ops,
            "cpu.conv.us.sum": 20.0 * ops,
            "cpu.gemm.launches": 3 * ops,
            "cpu.gemm.flops": (pw_flops + gemm_flops) * ops,
            "cpu.gemm.us.sum": 80.0 * ops,
        }
        graph = {"pointwise_convs": 2, "pointwise_flops": pw_flops}
        kc = collect.kernel_counts(reg, ops, graph)
        self.assertEqual(kc["launches"], 3 * ops)
        self.assertEqual(kc["flops"], (pw_flops + gemm_flops) * ops)
        # GEMM-side time of the convs is their FLOP share: 80 * 1/4.
        self.assertAlmostEqual(kc["busy_us"], (20.0 + 80.0 - 20.0) * ops)


class LayerConsistency(unittest.TestCase):
    def test_traced_bert(self):
        code, result, out = run_bench("--workload", "bert_m256",
                                      "--seed", "7", "--seconds", "2",
                                      "--trace", "1")
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(set(m), set(collect.PER_LAYER))
        self.assertEqual(m["cpukernels.launches"], 3.0)
        self.assertGreater(m["cpukernels.busy_us"], 0.9 * m["engine.run_us"])

    def test_disagreement_is_caught(self):
        m = {"cpukernels.busy_us": 1000.0, "cpukernels.span_busy_us": 1000.0}
        checks = {"registry_launches": 3.0, "span_launches": 3.0}
        self.assertEqual(collect.consistency_errors(m, checks), [])
        self.assertEqual(len(collect.consistency_errors(
            m, dict(checks, span_launches=4.0))), 1)
        self.assertEqual(len(collect.consistency_errors(
            dict(m, **{"cpukernels.span_busy_us": 1200.0}), checks)), 1)


class FingerprintGuard(unittest.TestCase):
    def result(self, **env):
        fp = {"workload": "bert_m256", "trace": 0, "seed": 1, "isa": "scalar",
              "threads": 4, "nproc": 4, "build_type": "Release",
              "backend": "cpukernels", "seconds": 10.0, "commit": "a"}
        fp.update(env)
        return {(fp["workload"], fp["trace"], fp["seed"]): {
            "fingerprint": fp, "metrics": {}}}

    def test_same_environment_compares(self):
        self.assertEqual(compare.check_pairs(self.result(),
                                             self.result(commit="b")), [])

    def test_different_isa_is_an_error(self):
        errors = compare.check_pairs(self.result(), self.result(isa="avx2"))
        self.assertEqual(len(errors), 1)
        self.assertIn("isa", errors[0])

    def test_unpaired_seed_is_an_error(self):
        self.assertTrue(compare.check_pairs(self.result(),
                                            self.result(seed=2)))


if __name__ == "__main__":
    unittest.main()
