"""The supported public surface of ``repro``, in one flat namespace.

Downstream code — experiment scripts, notebooks, benchmarks, external
tooling — should import from here::

    from repro.api import ScenarioConfig, run_scenario, MonitorServer

Everything in ``__all__`` below is the supported surface, and this is
the only module that re-exports: packages import nothing, so a name is
importable from the module that defines it and, if public, from here.
The implementation modules (``repro.monitor.server``,
``repro.scenario.runner``, ...) remain importable but are *internal*:
their layout may change without notice, and no shim keeps a name
importable from a module it has left.  :mod:`repro.lint` rule RL007
flags deep imports of facade names from tests and benchmarks.

The facade is organised by layer:

* **Simulation** — :class:`Simulator`, :class:`MeshConfig`,
  :class:`LoRaParams`, :func:`time_on_air`.
* **PHY / propagation seam** — :class:`Channel` (keyword-only
  ``reachability=`` construction; nodes attach with their
  :class:`Radio`, whose :class:`RadioState` tells the channel who
  listens), the :class:`PropagationModel` and :class:`ReachabilityIndex`
  protocols with their stock implementations (:class:`LinkModel`,
  :class:`GridReachabilityIndex`, :class:`BruteForceReachability`,
  :class:`LinkBudgetCache`), :class:`CollisionModel`, and the topology
  types (:class:`Topology`, :class:`Placement`, :func:`make_topology`).
* **Scenarios** — :func:`run_scenario`, :class:`Scenario`,
  :class:`ScenarioConfig`, :class:`ScenarioResult`, :class:`GroundTruth`,
  workload/mobility/fault specs.
* **Campaigns** — :class:`CampaignSpec`, :class:`CampaignPlan`,
  :class:`CampaignRunner`, :func:`aggregate_report`.
* **Monitoring** — client (:class:`MonitorClient`), uplinks, the
  multi-tenant :class:`MonitorServer` + :class:`NetworkRegistry`, stores,
  dashboard, HTTP server and the v1 API schema.
* **Streaming** — the push pipeline: :class:`StreamHub` + subscriptions,
  the ``repro.stream/1`` event schema, the :class:`SseStreamClient`
  consumer and the :class:`IncrementalRollup` feeding it.
* **Observability** — :class:`FlightRecorder`, :class:`SpanProfiler`,
  trace export/replay.
"""

from __future__ import annotations

from repro import __version__
from repro.campaign.aggregate import aggregate_report
from repro.campaign.scheduler import CampaignPlan, CampaignRunner
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.errors import ReproError
from repro.mesh.addressing import BROADCAST
from repro.mesh.config import MeshConfig
from repro.mesh.node import MeshNode
from repro.mesh.packet import Packet, PacketType
from repro.monitor.alerts import Alert, AlertEngine, NodeDelta
from repro.monitor.client import MonitorClient, MonitorClientConfig, SseStreamClient
from repro.monitor.codec import (
    BinaryCodec,
    Codec,
    JsonCodec,
    codec_for_content_type,
    resolve_codec,
)
from repro.monitor.dashboard import Dashboard
from repro.monitor.fleet import fleet_overview, network_tile
from repro.monitor.httpapi import MonitoringHttpServer
from repro.monitor.ingest import (
    DEFAULT_NETWORK_ID,
    IngestResult,
    ServerSelfMetrics,
)
from repro.monitor.records import Direction, PacketRecord, RecordBatch, StatusRecord
from repro.monitor.registry import NetworkRegistry, NetworkShard
from repro.monitor.rollup import IncrementalRollup
from repro.monitor.routes import schema_document
from repro.monitor.server import MonitorServer
from repro.monitor.stream.events import (
    STREAM_SCHEMA,
    StreamEvent,
    decode_event,
    encode_event,
)
from repro.monitor.stream.hub import StreamHub, StreamSubscription
from repro.monitor.sqlitestore import SqliteMetricsStore, sqlite_store_factory
from repro.monitor.storage import MetricsStore
from repro.monitor.transport.base import (
    IngestTransport,
    SequenceGapTracker,
    TelemetryGapAccountant,
)
from repro.monitor.transport.http import HttpIngestTransport
from repro.monitor.transport.udp import UdpIngestTransport
from repro.monitor.uplink import (
    GatewayBridge,
    HttpIngestClient,
    InBandUplink,
    OutOfBandUplink,
    ReliableInBandUplink,
    UdpIngestClient,
)
from repro.obs.ndjson import export_trace, read_trace, replay_into_recorder
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import SpanProfiler
from repro.phy.airtime import time_on_air
from repro.phy.channel import Channel, Reception
from repro.phy.collision import CollisionModel, FrameOnAir
from repro.phy.link import LinkModel, PathLossParams
from repro.phy.params import LoRaParams
from repro.phy.radio import Radio, RadioState
from repro.phy.reachability import (
    BruteForceReachability,
    GridReachabilityIndex,
    LinkBudgetCache,
    PropagationModel,
    ReachabilityIndex,
)
from repro.scenario.config import MobilitySpec, MonitorMode, ScenarioConfig, WorkloadSpec
from repro.scenario.faults import (
    BatteryDepletion,
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
)
from repro.scenario.results import GroundTruth, ScenarioResult
from repro.scenario.runner import Scenario, run_scenario
from repro.sim.engine import Simulator
from repro.sim.topology import Placement, Topology, make_topology

__all__ = [
    # version / errors
    "__version__",
    "ReproError",
    # simulation substrate
    "Simulator",
    "LoRaParams",
    "time_on_air",
    # PHY / propagation seam
    "Channel",
    "Reception",
    "Radio",
    "RadioState",
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
    # scenarios
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
    # campaigns
    "CampaignSpec",
    "RunSpec",
    "CampaignPlan",
    "CampaignRunner",
    "aggregate_report",
    # monitoring: records and client
    "Direction",
    "PacketRecord",
    "StatusRecord",
    "RecordBatch",
    "MonitorClient",
    "MonitorClientConfig",
    # monitoring: codecs
    "Codec",
    "JsonCodec",
    "BinaryCodec",
    "resolve_codec",
    "codec_for_content_type",
    # monitoring: uplinks
    "OutOfBandUplink",
    "InBandUplink",
    "ReliableInBandUplink",
    "GatewayBridge",
    "HttpIngestClient",
    "UdpIngestClient",
    # monitoring: ingest transports
    "IngestTransport",
    "HttpIngestTransport",
    "UdpIngestTransport",
    "SequenceGapTracker",
    "TelemetryGapAccountant",
    # monitoring: server and multi-tenancy
    "MonitorServer",
    "IngestResult",
    "ServerSelfMetrics",
    "DEFAULT_NETWORK_ID",
    "NetworkRegistry",
    "NetworkShard",
    "fleet_overview",
    "network_tile",
    # monitoring: stores
    "MetricsStore",
    "SqliteMetricsStore",
    "sqlite_store_factory",
    # monitoring: views and HTTP
    "Dashboard",
    "Alert",
    "AlertEngine",
    "NodeDelta",
    "MonitoringHttpServer",
    "schema_document",
    # monitoring: push pipeline
    "STREAM_SCHEMA",
    "StreamEvent",
    "encode_event",
    "decode_event",
    "StreamHub",
    "StreamSubscription",
    "SseStreamClient",
    "IncrementalRollup",
    # observability
    "FlightRecorder",
    "SpanProfiler",
    "export_trace",
    "read_trace",
    "replay_into_recorder",
]
