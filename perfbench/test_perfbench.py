#!/usr/bin/env python3
"""Self-tests of the repo benchmark.

    python3 perfbench/test_perfbench.py

The derivation tests check analysis.py against a small hand-built trace; the
smoke test runs every workload at the tiny scale through run.py (building
perfbench_runner first if needed) and checks that every metric BENCHMARK.json
names is emitted, with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402
import run  # noqa: E402


def span(name: str, tid: int, ts: float, dur: float) -> dict:
    return {"name": name, "ph": "X", "pid": 0, "tid": tid, "ts": ts,
            "dur": dur, "args": {}}


def lane(tid: int, name: str) -> dict:
    return {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
            "args": {"name": name}}


# Two shard lanes, the coordinator (lane 2) and the bench lane (lane 3); one
# 100 us run. Shard 0 is busy 80 us (a 40 us window holding a 10 us
# clearing, then another 40 us window); shard 1 is busy 30 us.
HAND_TRACE = [
    lane(0, "shard 0"), lane(1, "shard 1"), lane(2, "coordinator"),
    lane(3, "bench"),
    span("bench.traced_run", 3, 0, 100),
    span("fleet.run", 2, 0, 100),
    span("coord.exchange", 2, 40, 5),
    span("coord.exchange", 2, 90, 4),
    span("shard.window", 0, 0, 40),
    span("market.clear", 0, 10, 10),
    span("shard.window", 0, 50, 40),
    span("shard.window", 1, 0, 20),
    span("market.clear", 1, 5, 5),
    span("shard.drain", 1, 60, 10),
]


class derivations(unittest.TestCase):
    def setUp(self) -> None:
        self.out = analysis.breakdown(HAND_TRACE, shards=2)

    def test_self_time_subtracts_children(self) -> None:
        # Windows: (40 - 10) + 40 + (20 - 5) us.
        self.assertAlmostEqual(self.out["fleet_shard.window_self_s"], 85e-6)
        self.assertAlmostEqual(self.out["spot_market.clear_self_s"], 15e-6)
        self.assertAlmostEqual(self.out["mailbox.exchange_self_s"], 9e-6)
        self.assertEqual(self.out["spot_market.clears"], 2)
        self.assertEqual(self.out["fleet_shard.windows"], 1.5)

    def test_barrier_wait_imbalance_efficiency(self) -> None:
        # Busy: shard 0 = 80 us, shard 1 = 20 + 10 = 30 us; wall 100 us.
        self.assertAlmostEqual(self.out["fleet_shard.barrier_wait_s"],
                               (2 * 100 - 110) * 1e-6)
        self.assertAlmostEqual(self.out["fleet_shard.lane_imbalance"],
                               80 / 55)
        self.assertAlmostEqual(self.out["fleet_shard.parallel_efficiency"],
                               110 / 200)

    def test_lane_coverage(self) -> None:
        cover = {c["lane"]: c for c in self.out["coverage"]}
        self.assertAlmostEqual(cover["shard 0"]["covered_pct"], 80.0)
        self.assertAlmostEqual(cover["shard 1"]["covered_pct"], 30.0)
        self.assertAlmostEqual(cover["coordinator"]["covered_pct"], 100.0)
        self.assertAlmostEqual(cover["shard 0"]["self_pct"]["market.clear"],
                               10.0)

    def test_percentiles(self) -> None:
        values = [float(v) for v in range(10, 0, -1)]
        self.assertEqual(analysis.percentile(values, 0.5), 5.0)
        self.assertEqual(analysis.percentile(values, 0.9), 9.0)
        self.assertEqual(analysis.percentile(values, 1.0), 10.0)
        self.assertEqual(analysis.percentile([], 0.5), 0.0)

    def test_registry_metrics(self) -> None:
        doc = {"counters": {"mailbox.delivered": 50, "mailbox.late": 4},
               "histograms": {"market.cohort": {"count": 4, "sum": 6}}}
        out = analysis.registry_metrics(doc)
        self.assertEqual(out["mailbox.delivered"], 50)
        self.assertAlmostEqual(out["mailbox.late_share"], 0.08)
        self.assertAlmostEqual(out["spot_market.mean_cohort"], 1.5)


class benchmark_outputs(unittest.TestCase):
    def test_benchmark_json_matches_run_tables(self) -> None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)

    def test_every_metric_emitted_with_unit(self) -> None:
        for workload in run.WORKLOADS:
            for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"),
                         "--workload", workload, "--seed", "7",
                         "--seconds", "0.2", "--trace", str(trace),
                         "--scale", "tiny"],
                        cwd=HERE.parent, capture_output=True, text=True,
                        timeout=900, check=False)
                    self.assertEqual(proc.returncode, 0,
                                     proc.stdout + proc.stderr[-2000:])
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), set(table))
                    for name, unit in table.items():
                        self.assertEqual(result["metrics"][name]["unit"],
                                         unit)
                        self.assertIsInstance(
                            result["metrics"][name]["value"], float)


if __name__ == "__main__":
    unittest.main()
