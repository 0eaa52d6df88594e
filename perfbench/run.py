#!/usr/bin/env python3
"""The repo benchmark (BENCHMARK.json): build, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench_runner (perfbench/CMakeLists.txt) under .bench_build/ (or
$CARGO_TARGET_DIR); later runs rebuild incrementally. --trace 0 times the
workload untraced and reports the end-to-end metrics; --trace 1 runs the
traced breakdown and reports the per-layer metrics, writing the Chrome trace
to .bench_build/traces/. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the lines before it carry the
build provenance and, when traced, the per-lane coverage. The exit code is
non-zero when the build or the run fails, or when an output check fails.
See perfbench/BENCHMARK.md for the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402

WORKLOADS = ("stream_grid4", "oligopoly_m8", "pricer_learning")

END_TO_END = {
    "setup_s": "s",
    "migrations_per_s": "migrations/s",
    "run_s": "s",
    "mean_aotm_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "fleet_shard.window_self_s": "s",
    "fleet_shard.arrivals_self_s": "s",
    "fleet_shard.flush_self_s": "s",
    "fleet_shard.windows": "count",
    "fleet_shard.barrier_wait_s": "s",
    "fleet_shard.lane_imbalance": "ratio",
    "fleet_shard.parallel_efficiency": "ratio",
    "mailbox.exchange_self_s": "s",
    "mailbox.delivered": "count",
    "mailbox.late_share": "ratio",
    "spot_market.clear_self_s": "s",
    "spot_market.clears": "count",
    "spot_market.mean_cohort": "vehicles",
    "spot_market.deferred": "count",
    "competitive_market.clear_self_s": "s",
    "multi_msp.evals_per_clear": "count",
    "multi_msp.sweeps_per_clear": "count",
    "multi_msp.warm_hit_rate": "ratio",
    "multi_msp.unconverged": "count",
    "equilibrium.solve_ns": "ns",
    "precopy.run_ns": "ns",
    "precopy.rounds_mean": "count",
    "event_queue.op_ns": "ns",
    "route_profile.advance_ns": "ns",
    "telemetry.overhead_pct": "%",
    "trace.events": "count",
    "rl.episode_s_p50": "s",
    "rl.episode_s_p90": "s",
    "rl.episodes": "count",
    "rl.ppo_update_ns": "ns",
    "nn.policy_act_ns": "ns",
    "mechanism.harvest_s": "s",
    "mechanism.learned_over_oracle": "ratio",
}

# Taken from the 4-lane companion trace when a workload has one (stream_grid4):
# the layers only a sharded run exercises.
SHARDED_LAYERS = (
    "fleet_shard.barrier_wait_s",
    "fleet_shard.lane_imbalance",
    "fleet_shard.parallel_efficiency",
    "mailbox.exchange_self_s",
    "mailbox.delivered",
    "mailbox.late_share",
)


def run_timeout_s(seconds: float) -> float:
    """The runner's time limit: --seconds of measured repetitions, at most
    as much again for set-up, overshoot and the traced run's replays, plus a
    fixed margin."""
    return 2.0 * seconds + 60.0


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir: Path) -> Path:
    """Configure once, then build incrementally; returns the runner path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir),
                    "--target", "perfbench_runner", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench_runner"


def source_digest(root: Path) -> str:
    """SHA-256 over the library sources (src/), the provenance that still
    identifies the code when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run(args: argparse.Namespace) -> int:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        runner = build(base / "perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    traced = args.trace == 1
    out_dir = base / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    command = [str(runner), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", "traced" if traced else "timed",
               "--scale", args.scale, "--out-dir", str(out_dir)]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {timeout:g} s")
        return 1
    if proc.returncode != 0:
        log(f"runner exited with {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    provenance = raw["provenance"]
    provenance["source_digest"] = source_digest(HERE.parent)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    if not provenance["comparable"]:
        print(f"WARNING: {provenance['build_type']} build — these numbers "
              "are not comparable with Release results")

    values = dict(raw["metrics"])
    if traced:
        for i, entry in enumerate(raw["traces"]):
            shards = int(entry["shards"])
            layers = analysis.load(entry["trace"], entry["metrics"], shards)
            print(f"trace: {entry['trace']} ({shards} shard lanes)")
            for lane in layers.pop("coverage"):
                top = ", ".join(f"{k} {v:.1f}%" for k, v
                                in list(lane["self_pct"].items())[:4])
                print(f"  lane {lane['lane']}: named layers cover "
                      f"{lane['covered_pct']:.1f}% of traced wall; "
                      f"self: {top}")
            if i == 0:
                values.update(layers)
            else:
                values.update({k: layers[k] for k in SHARDED_LAYERS})
        episodes = raw["episode_s"]
        values["rl.episode_s_p50"] = analysis.percentile(episodes, 0.5)
        values["rl.episode_s_p90"] = analysis.percentile(episodes, 0.9)
        values["rl.episodes"] = len(episodes)
    table = PER_LAYER if traced else END_TO_END
    for name in table:
        print(f"{name} = {values[name]:.6g} {table[name]}")
    for name in sorted(set(values) - set(table)):
        print(f"info: {name} = {values[name]:.6g}")

    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in table.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # tiny: the self-test size (perfbench/test_perfbench.py), not a result.
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
