#!/usr/bin/env python3
"""Tests of the simulator benchmark itself.

Run from the repository root (builds the harness on first use):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(HERE)


def balanced_rep():
    """A repetition record that passes every check (router-64b numbers)."""
    return {
        "streaming": 1, "gen_frames": 3056957, "trace_arrivals": 0,
        "rx_frames": 282657,
        "drops_no_desc": 2774300, "drops_pcie": 0, "tx_pkts": 261184,
        "cores": 1, "acct_compiled_in": 1, "acct_sum_minus_total": [0],
        "digest": "tx=261184",
    }


class Checks(unittest.TestCase):
    def test_balanced_input_passes(self):
        self.assertEqual(run.check_rep(balanced_rep()), [])
        self.assertEqual(run.check_all([balanced_rep(), balanced_rep()]), 0)

    def test_unbalanced_conservation_is_a_failure(self):
        rec = balanced_rep()
        rec["drops_no_desc"] -= 1  # one generated frame vanished
        fails = run.check_rep(rec)
        self.assertEqual(len(fails), 1)
        self.assertIn("frame conservation", fails[0])
        self.assertEqual(run.check_all([balanced_rep(), rec]), 1)

    def test_trace_replay_counts_paced_arrivals(self):
        rec = balanced_rep()
        rec["streaming"] = 0
        rec["gen_frames"] = 0
        rec["trace_arrivals"] = 3056957
        self.assertEqual(run.arrivals(rec), 3056957)
        self.assertEqual(run.check_rep(rec), [])
        rec["trace_arrivals"] += 1  # the NICs missed a replayed frame
        self.assertIn("frame conservation", run.check_rep(rec)[0])

    def test_more_tx_than_rx_is_a_failure(self):
        rec = balanced_rep()
        rec["tx_pkts"] = rec["rx_frames"] + 1
        self.assertTrue(any("tx_pkts" in f for f in run.check_rep(rec)))

    def test_acct_imbalance_is_a_failure(self):
        rec = balanced_rep()
        rec["acct_sum_minus_total"] = [3]
        self.assertTrue(any("acct" in f for f in run.check_rep(rec)))

    def test_digest_mismatch_is_a_failure(self):
        other = balanced_rep()
        other["digest"] = "tx=261185"
        self.assertEqual(run.check_all([balanced_rep(), other]), 1)

    def test_harness_error_is_a_failure(self):
        self.assertEqual(run.check_all([{"error": "harness exit -9"}]), 1)


class HostScaling(unittest.TestCase):
    def test_host_slowdown_cancels(self):
        # The same work on a host twice as slow: every time doubles,
        # the reference kernel's too, and the metrics stay put.
        def rep(slow):
            return {"sim_s": 0.0215, "run_s": 0.5 * slow,
                    "input_s": 0.01 * slow, "ctor_s": 0.08 * slow,
                    "grind_s": 0.01 * slow,
                    "ref_ns": run.HOST_REF_NS * 1.5 * slow,
                    "peak_rss_kib": 1024}
        quiet = run.end_to_end([rep(1.0)] * 3)
        busy = run.end_to_end([rep(2.0)] * 3)
        self.assertAlmostEqual(quiet["sim_rate"], 0.0215 / 0.5 * 1.5)
        self.assertAlmostEqual(busy["sim_rate"], quiet["sim_rate"])
        self.assertAlmostEqual(quiet["setup_s"], 0.1 / 1.5)
        self.assertAlmostEqual(busy["setup_s"], quiet["setup_s"])


class Compare(unittest.TestCase):
    def test_paired_ratio_cancels_shared_slowdown(self):
        # The host slows both runs of pair 2 alike; new is 10% faster in
        # every pair, which the per-pair ratio shows exactly.
        base = [{"sim_rate": v, "setup_s": 1.0} for v in (1.0, 0.5, 1.0)]
        new = [{"sim_rate": v * 1.1, "setup_s": 1.0} for v in (1.0, 0.5, 1.0)]
        got = compare.summarize(base, new,
                                {"sim_rate": False, "setup_s": True})
        bm, _, nm, _, ratio, wins = got["sim_rate"]
        self.assertEqual((bm, nm, wins), (1.0, 1.1, 3))
        self.assertAlmostEqual(ratio, 1.1)
        self.assertEqual(got["setup_s"][5], 0)  # ties count for neither


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class ShortRuns(unittest.TestCase):
    """A very short run of every workload prints every named metric."""

    def test_every_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        for trace, key, table in ((0, "end_to_end", run.END_TO_END),
                                  (1, "per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in spec[key]],
                             list(table))
            for wl in names:
                with self.subTest(workload=wl, trace=trace):
                    p = bench(["--workload", wl, "--seed", "3",
                               "--seconds", "0", "--trace", str(trace)])
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    res = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(res),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {n: m["unit"] for n, m in res["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"]
                                           for m in spec[key]})
                    printed = {tuple(l.split()[::2])
                               for l in p.stdout.splitlines()
                               if len(l.split()) == 3}
                    for name, unit in table:
                        self.assertIn((name, unit), printed)

    def test_without_sources_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            p = bench(["--workload", "nat-zipf-4core", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
