"""RL007 — tests and benchmarks import public names through the facade.

:mod:`repro.api` is the supported surface; everything in its ``__all__``
is covered by the compatibility promise.  When a test or benchmark
imports one of those names from the implementation module instead
(``from repro.monitor.server import MonitorServer``), it silently pins
the internal layout: the next refactor breaks it even though the public
name never moved.  The rule flags exactly those imports.  Imports of
genuinely internal names (helpers, private classes) are untouched — code
that *means* to test internals still can.

Scope: test code and out-of-package scripts (benchmarks, examples).
Library modules under ``repro`` are exempt; the implementation has to
import itself deeply, and making ``repro.api`` import-cycle-free
requires it.

``_FACADE_NAMES`` is a hardcoded copy of ``repro.api.__all__`` so the
linter stays purely static (importing :mod:`repro.api` would drag the
whole stack — SQLite, HTTP server — into every lint run).  A meta-test
asserts the copy equals the real ``__all__``; update both together.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.lint.context import FileContext
from repro.lint.registry import register
from repro.lint.violation import Violation

#: Mirror of ``repro.api.__all__`` (kept in sync by a meta-test).
_FACADE_NAMES: FrozenSet[str] = frozenset(
    {
        "__version__",
        "ReproError",
        "Simulator",
        "LoRaParams",
        "time_on_air",
        "Channel",
        "ChannelConfig",
        "Reception",
        "CollisionModel",
        "FrameOnAir",
        "LinkModel",
        "PathLossParams",
        "PropagationModel",
        "ReachabilityIndex",
        "GridReachabilityIndex",
        "BruteForceReachability",
        "LinkBudgetCache",
        "Topology",
        "Placement",
        "make_topology",
        "MeshConfig",
        "MeshNode",
        "Packet",
        "PacketType",
        "BROADCAST",
        "run_scenario",
        "Scenario",
        "ScenarioConfig",
        "ScenarioResult",
        "GroundTruth",
        "MonitorMode",
        "WorkloadSpec",
        "MobilitySpec",
        "FaultSchedule",
        "NodeCrash",
        "LinkDegradation",
        "BatteryDepletion",
        "CampaignSpec",
        "RunSpec",
        "CampaignPlan",
        "CampaignRunner",
        "aggregate_report",
        "Direction",
        "PacketRecord",
        "StatusRecord",
        "RecordBatch",
        "MonitorClient",
        "MonitorClientConfig",
        "Codec",
        "JsonCodec",
        "BinaryCodec",
        "resolve_codec",
        "codec_for_content_type",
        "OutOfBandUplink",
        "InBandUplink",
        "ReliableInBandUplink",
        "GatewayBridge",
        "HttpIngestClient",
        "UdpIngestClient",
        "IngestTransport",
        "HttpIngestTransport",
        "UdpIngestTransport",
        "SequenceGapTracker",
        "TelemetryGapAccountant",
        "MonitorServer",
        "BackpressurePolicy",
        "IngestResult",
        "ServerSelfMetrics",
        "DEFAULT_NETWORK_ID",
        "NetworkRegistry",
        "NetworkShard",
        "fleet_overview",
        "network_tile",
        "MetricsStore",
        "SqliteMetricsStore",
        "sqlite_store_factory",
        "Dashboard",
        "Alert",
        "AlertEngine",
        "NodeDelta",
        "MonitoringHttpServer",
        "schema_document",
        "STREAM_SCHEMA",
        "StreamEvent",
        "encode_event",
        "decode_event",
        "StreamHub",
        "StreamSubscription",
        "SseStreamClient",
        "IncrementalRollup",
        "FlightRecorder",
        "SpanProfiler",
        "export_trace",
        "read_trace",
        "replay_into_recorder",
    }
)

#: modules whose re-exports are part of the supported surface themselves
_ALLOWED_MODULES = ("repro", "repro.api")


@register
class FacadeBypassRule:
    rule_id = "RL007"
    title = "import public names via repro.api"

    def check(self, context: FileContext) -> Iterator[Violation]:
        # Library code must deep-import itself; everyone else goes
        # through the facade for names the facade exports.
        if context.is_library_code and not context.is_test_code:
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or node.module is None:  # relative import
                continue
            module = node.module
            if module in _ALLOWED_MODULES or not module.startswith("repro."):
                continue
            for alias in node.names:
                if alias.name in _FACADE_NAMES:
                    yield Violation(
                        path=str(context.path),
                        line=node.lineno,
                        col=node.col_offset,
                        rule_id=self.rule_id,
                        message=(
                            f"{alias.name!r} is public API: import it from "
                            f"repro.api, not {module} (internal layout)"
                        ),
                    )
