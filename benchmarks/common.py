"""Shared infrastructure for the experiment benches.

Every bench is a pytest-benchmark test that (a) runs the experiment's
parameter sweep, (b) prints the regenerated table/figure series through
:class:`repro.analysis.report.ExperimentReport`, and (c) benchmarks one
representative unit of work so ``pytest benchmarks/ --benchmark-only``
also yields timing data.

Sweeps go through the campaign subsystem (``repro.campaign``): a bench
declares a :class:`~repro.campaign.spec.CampaignSpec` and reads per-point
aggregates back, sharing one on-disk result cache for the pytest session
(so benches that sweep overlapping grids reuse runs, and a re-run within
the session replays from cache).  Benches that additionally need *live*
handles (a store to query, a client to flush) use
:func:`cached_scenario`, whose in-memory cache is keyed by the campaign
cache's full-config content hash — distinct configs can no longer
collide the way the old hand-maintained tuple key allowed.

Scenario durations here are sized for laptop runs (tens of seconds per
bench); the shapes they demonstrate are stable across longer runs.
"""

from __future__ import annotations

import atexit
import json
import os
import platform
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping

from repro import __version__
from repro.campaign.hashing import config_digest
from repro.api import (
    CampaignRunner,
    CampaignSpec,
    MonitorMode,
    ScenarioConfig,
    ScenarioResult,
    WorkloadSpec,
    run_scenario,
)

#: Versioned envelope every ``BENCH_*.json`` artifact is wrapped in.
BENCH_SCHEMA = "repro.bench/1"

#: Cache so parametrised benches that need the same scenario reuse one run,
#: keyed by the full-config content hash (every field participates).
_CACHE: Dict[str, ScenarioResult] = {}

#: One campaign result cache per bench process; removed at exit.
_CAMPAIGN_CACHE_DIR = tempfile.TemporaryDirectory(prefix="repro-bench-campaign-")
atexit.register(_CAMPAIGN_CACHE_DIR.cleanup)


def cached_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run (or reuse) the scenario for ``config``."""
    key = config_digest(config)
    if key not in _CACHE:
        _CACHE[key] = run_scenario(config)
    return _CACHE[key]


def bench_workers(default: int = 0) -> int:
    """Worker-pool size for bench sweeps.

    ``BENCH_WORKERS`` overrides; otherwise use up to 4 processes when the
    host has the cores for it.  Results are worker-count invariant, so
    this only moves wall-clock.
    """
    raw = os.environ.get("BENCH_WORKERS", "")
    if raw.strip():
        return max(1, int(raw))
    if default:
        return default
    return min(4, os.cpu_count() or 1)


def run_campaign_points(
    spec: CampaignSpec, workers: int = 0
) -> List[Mapping[str, Any]]:
    """Execute a bench's campaign and return the per-point aggregates.

    Always resumes from the session cache: two benches (or a sweep and a
    later report) sharing grid points pay for each run once.
    """
    runner = CampaignRunner(
        spec,
        cache_dir=_CAMPAIGN_CACHE_DIR.name,
        workers=workers or bench_workers(),
    )
    return runner.run(resume=True)["points"]


def point_mean(point: Mapping[str, Any], metric: str) -> float:
    """Mean of ``metric`` at one aggregated grid point (NaN when absent)."""
    stats = point["metrics"].get(metric)
    if not stats or stats.get("mean") is None:
        return float("nan")
    return float(stats["mean"])


def emit(report) -> None:
    """Print a report table to the bench output (visible with ``-s`` and in
    the captured section of the run log)."""
    print()
    print(report.render())
    sys.stdout.flush()


@dataclass
class BenchReport:
    """Shared writer for the versioned ``BENCH_*.json`` artifact format.

    Every bench that persists machine-readable results wraps them in one
    ``repro.bench/1`` envelope: schema name, bench id/title, the code
    version that produced the numbers, host facts (so a regression seen in
    CI can be told apart from a slower machine), and the bench-specific
    ``results`` payload.  :func:`validate_bench_report` is the drift
    gate — a validator test runs it over every committed artifact.
    """

    bench: str
    title: str
    results: Mapping[str, Any]
    #: extra top-level facts a bench wants to pin (e.g. guardrail knobs).
    extra: Mapping[str, Any] = field(default_factory=dict)

    def envelope(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": BENCH_SCHEMA,
            "bench": self.bench,
            "title": self.title,
            "code_version": __version__,
            "host": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(),
            },
            "results": dict(self.results),
        }
        for key, value in self.extra.items():
            payload[key] = value
        return payload

    def write(self, path: Path) -> Dict[str, Any]:
        """Serialise the envelope to ``path`` (stable key order) and
        return it."""
        payload = self.envelope()
        errors = validate_bench_report(payload)
        if errors:
            raise ValueError(f"refusing to write invalid bench report: {errors}")
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return payload


def check_gates(bench: str, gates: Mapping[str, bool]) -> None:
    """Raise ``AssertionError`` naming every gate that failed.

    A bench calls this before :meth:`BenchReport.write`, so a committed
    artifact never records a number that breaks its own gate.
    """
    failed = [name for name, passed in gates.items() if not passed]
    if failed:
        raise AssertionError(f"{bench} gates failed: {'; '.join(failed)}")


#: keys every repro.bench/1 envelope must carry, with their types.
_ENVELOPE_FIELDS = {
    "schema": str,
    "bench": str,
    "title": str,
    "code_version": str,
    "host": dict,
    "results": dict,
}

_HOST_FIELDS = {"platform": str, "python": str, "cpu_count": int}


def validate_bench_report(payload: Any) -> List[str]:
    """Check one artifact against the ``repro.bench/1`` envelope.

    Returns a list of human-readable problems (empty = valid).
    """
    errors: List[str] = []
    if not isinstance(payload, Mapping):
        return [f"payload is {type(payload).__name__}, expected a mapping"]
    for key, expected in _ENVELOPE_FIELDS.items():
        if key not in payload:
            errors.append(f"missing required key {key!r}")
        elif not isinstance(payload[key], expected):
            errors.append(
                f"{key!r} is {type(payload[key]).__name__}, expected {expected.__name__}"
            )
    schema = payload.get("schema")
    if isinstance(schema, str) and schema != BENCH_SCHEMA:
        errors.append(f"schema is {schema!r}, expected {BENCH_SCHEMA!r}")
    host = payload.get("host")
    if isinstance(host, Mapping):
        for key, expected in _HOST_FIELDS.items():
            if key not in host:
                errors.append(f"host missing {key!r}")
            elif not isinstance(host[key], expected):
                errors.append(
                    f"host[{key!r}] is {type(host[key]).__name__}, "
                    f"expected {expected.__name__}"
                )
    if isinstance(payload.get("results"), Mapping) and not payload["results"]:
        errors.append("results is empty")
    return errors


def small_monitored_config(**overrides) -> ScenarioConfig:
    """The default 25-node monitored scenario most benches sweep around."""
    base = dict(
        seed=101,
        n_nodes=25,
        spreading_factor=7,
        monitor_mode=MonitorMode.OUT_OF_BAND,
        report_interval_s=60.0,
        warmup_s=1200.0,
        duration_s=1800.0,
        cooldown_s=60.0,
        workload=WorkloadSpec(kind="periodic", interval_s=300.0, payload_bytes=24),
    )
    base.update(overrides)
    return ScenarioConfig(**base)
