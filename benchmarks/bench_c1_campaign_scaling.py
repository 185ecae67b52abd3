"""C1 — Campaign runner scaling: workers and cache-hit replay.

Runs the same 16-point grid three ways — serially (1 worker), across a
4-process pool, and replayed from a warm cache — and records wall-clock
for each in ``BENCH_campaign.json`` at the repo root, the perf
trajectory file for the campaign subsystem.

Two contracts are asserted every time: the three aggregate reports are
byte-identical (worker/cache invariance), and warm-cache replay is far
faster than recomputing.  The >= 2.5x pool speedup is asserted only on
hosts with >= 4 usable cores — on smaller machines the pool can only
timeshare, and the recorded numbers say so via ``host.cpu_count``.
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.campaign.aggregate import render_report_json
from repro.api import CampaignRunner, CampaignSpec

from benchmarks.common import BenchReport, check_gates, small_monitored_config

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_campaign.json"

#: 4 x 4 grid, 16 runs, each a sub-second scenario: big enough that pool
#: dispatch overhead is amortised, small enough for CI.
SPEC = CampaignSpec(
    name="c1_campaign_scaling",
    base=small_monitored_config(
        n_nodes=9, warmup_s=300.0, duration_s=600.0, cooldown_s=60.0
    ),
    axes={
        "n_nodes": [7, 8, 9, 10],
        "report_interval_s": [30.0, 60.0, 120.0, 240.0],
    },
    replicates=1,
    master_seed=4242,
)


def _timed_run(cache_dir: str, workers: int, resume: bool):
    runner = CampaignRunner(SPEC, cache_dir=cache_dir, workers=workers)
    started = time.perf_counter()
    report = runner.run(resume=resume)
    return time.perf_counter() - started, report, runner.last_stats


def run_scaling():
    """The three timed grid executions; returns the results payload."""
    workdir = tempfile.mkdtemp(prefix="repro-bench-c1-")
    try:
        serial_dir = os.path.join(workdir, "serial")
        pool_dir = os.path.join(workdir, "pool")
        serial_s, serial_report, _ = _timed_run(serial_dir, workers=1, resume=False)
        pool_s, pool_report, _ = _timed_run(pool_dir, workers=4, resume=False)
        replay_s, replay_report, replay_stats = _timed_run(
            serial_dir, workers=1, resume=True
        )
        serial_bytes = render_report_json(serial_report)
        invariant = (
            serial_bytes == render_report_json(pool_report)
            and serial_bytes == render_report_json(replay_report)
        )
        return {
            "campaign": SPEC.name,
            "grid": {
                "points": SPEC.n_points,
                "replicates": SPEC.replicates,
                "runs": SPEC.n_runs,
            },
            "timings_s": {
                "serial_1_worker": round(serial_s, 3),
                "parallel_4_workers": round(pool_s, 3),
                "replay_warm_cache": round(replay_s, 3),
            },
            "speedup_4_workers_vs_serial": round(serial_s / pool_s, 2),
            "speedup_replay_vs_serial": round(serial_s / replay_s, 2),
            "replay_runs_computed": replay_stats.computed,
            "worker_invariant": invariant,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(results) -> BenchReport:
    return BenchReport(
        bench="C1",
        title="Campaign runner scaling: workers and cache-hit replay",
        results=results,
    )


def check(results) -> None:
    """The C1 gates, run before the artifact is written."""
    check_gates("C1", {
        # Determinism: all three executions produced the same report bytes.
        "worker_invariant": bool(results["worker_invariant"]),
        # Resume recomputed nothing against the warm cache.
        "replay_runs_computed == 0": results["replay_runs_computed"] == 0,
        # Cache-hit replay must crush recomputation on any host.
        "speedup_replay_vs_serial >= 5.0": results["speedup_replay_vs_serial"] >= 5.0,
        # Pool scaling needs cores to scale onto.
        "speedup_4_workers_vs_serial >= 2.5 (>= 4 cores)": (
            (os.cpu_count() or 1) < 4 or results["speedup_4_workers_vs_serial"] >= 2.5
        ),
    })


def test_c1_campaign_scaling(benchmark):
    results = run_scaling()
    check(results)
    _report(results).write(OUTPUT_PATH)

    # Benchmark unit: one warm-cache replay + aggregation of the grid.
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-c1-unit-")
    try:
        CampaignRunner(SPEC, cache_dir=cache_dir, workers=1).run(resume=True)
        benchmark(
            lambda: CampaignRunner(SPEC, cache_dir=cache_dir, workers=1).run(resume=True)
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    results = run_scaling()
    check(results)
    payload = _report(results).write(OUTPUT_PATH)
    print(json.dumps(payload, indent=2, sort_keys=True))
