"""Per-layer numbers from a traced perfbench run.

The runner writes one Chrome trace per workload (util::trace_session's
export: one track per lane, shard lanes first, then the coordinator lane,
then the benchmark's own "bench" lane) plus the merged
util::metrics_registry totals. This module turns them into the per-layer
metrics of BENCHMARK.json. The trace format itself (lane names, spans per
lane, containment-stack self time) is read with tools/trace_summary.py; the
derivations here are the benchmark's:

- self time per span name, summed from trace_summary.self_times;
- lane busy: the shard.window + shard.drain time of one shard lane;
- barrier wait: lanes x run wall - sum of lane busy, where run wall is the
  total of the coordinator's fleet.run / fleet.stream spans;
- lane imbalance: max over mean lane busy;
- parallel efficiency: sum of lane busy / (lanes x run wall);
- percentiles: nearest-rank.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from trace_summary import lane_names, self_times, spans_by_lane  # noqa: E402

US = 1e-6  # trace timestamps are microseconds

RUN_SPANS = ("fleet.run", "fleet.stream")
BUSY_SPANS = ("shard.window", "shard.drain")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def self_by_name(lane: list[dict]) -> dict[str, float]:
    """Self time (us) per span name on one lane."""
    out: dict[str, float] = defaultdict(float)
    for ev, self_us in self_times(lane):
        out[ev["name"]] += self_us
    return dict(out)


def covered_us(lane: list[dict]) -> float:
    """Time (us) covered by at least one span of a lane sorted by start."""
    covered = 0.0
    end = -math.inf
    for ev in lane:
        lo, hi = ev["ts"], ev["ts"] + ev["dur"]
        if hi > end:
            covered += hi - max(lo, end)
            end = hi
    return covered


def breakdown(events: list[dict], shards: int) -> dict:
    """Span-derived layer metrics for a trace whose lanes 0..shards-1 are
    shard lanes and lane `shards` is the coordinator."""
    lanes = spans_by_lane(events)
    names = lane_names(events)
    coordinator = shards
    self_by_lane = {tid: self_by_name(spans) for tid, spans in lanes.items()}

    def self_s(name: str, tids) -> float:
        return US * sum(self_by_lane.get(t, {}).get(name, 0.0) for t in tids)

    def count(name: str, tids) -> int:
        return sum(1 for t in tids for e in lanes.get(t, ())
                   if e["name"] == name)

    shard_tids = range(shards)
    wall = US * sum(e["dur"] for e in lanes.get(coordinator, ())
                    if e["name"] in RUN_SPANS)
    busy = [US * sum(e["dur"] for e in lanes.get(t, ())
                     if e["name"] in BUSY_SPANS) for t in shard_tids]
    mean_busy = sum(busy) / shards if shards else 0.0
    all_tids = list(lanes)

    # Coverage: per lane, the share of the traced wall (the bench lane's
    # bench.traced_run spans) its spans cover, and the self-time share of
    # each span name on it.
    traced = [e for spans in lanes.values() for e in spans
              if e["name"] == "bench.traced_run"]
    traced_wall = sum(e["dur"] for e in traced)
    windows = [(e["ts"], e["ts"] + e["dur"]) for e in traced]

    def inside(ev) -> bool:
        return any(lo <= ev["ts"] <= hi for lo, hi in windows)

    coverage = []
    for tid in sorted(lanes):
        spans = [e for e in lanes[tid] if inside(e)]
        covered = covered_us(spans)
        own = self_by_name(spans)
        coverage.append({
            "lane": names.get(tid, str(tid)),
            "covered_pct": 100.0 * covered / traced_wall if traced_wall else 0.0,
            "self_pct": {k: 100.0 * v / traced_wall if traced_wall else 0.0
                         for k, v in sorted(own.items(),
                                            key=lambda kv: -kv[1])},
        })

    return {
        "fleet_shard.window_self_s": self_s("shard.window", shard_tids),
        "fleet_shard.arrivals_self_s": self_s("coord.arrivals", [coordinator]),
        "fleet_shard.flush_self_s": self_s("coord.flush", [coordinator]),
        "fleet_shard.windows": count("shard.window", shard_tids) / shards
        if shards else 0,
        "fleet_shard.barrier_wait_s": shards * wall - sum(busy),
        "fleet_shard.lane_imbalance": max(busy) / mean_busy
        if mean_busy > 0 else 0.0,
        "fleet_shard.parallel_efficiency": sum(busy) / (shards * wall)
        if wall > 0 else 0.0,
        "mailbox.exchange_self_s": self_s("coord.exchange", [coordinator]),
        "spot_market.clear_self_s": self_s("market.clear", all_tids),
        "spot_market.clears": count("market.clear", all_tids),
        "competitive_market.clear_self_s": self_s("comarket.clear", all_tids),
        "coverage": coverage,
    }


def registry_metrics(doc: dict) -> dict:
    """Layer counters from util::metrics_registry::write_json output."""
    counters = doc.get("counters", {})
    cohort = doc.get("histograms", {}).get("market.cohort", {})
    delivered = counters.get("mailbox.delivered", 0)
    late = counters.get("mailbox.late", 0)
    return {
        "mailbox.delivered": delivered,
        "mailbox.late_share": late / delivered if delivered else 0.0,
        "spot_market.mean_cohort": cohort["sum"] / cohort["count"]
        if cohort.get("count") else 0.0,
    }


def load(trace_path: str, metrics_path: str, shards: int) -> dict:
    with open(trace_path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    with open(metrics_path, encoding="utf-8") as fh:
        registry = json.load(fh)
    out = breakdown(events, shards)
    out.update(registry_metrics(registry))
    return out
