"""Scenario configuration.

A :class:`ScenarioConfig` fully describes one experiment run: deployment
geometry, PHY settings, mesh protocol, monitoring setup and workload.  The
benches are parameter sweeps over these configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from repro.errors import ConfigurationError
from repro.mesh.config import MeshConfig
from repro.monitor.ingest import DEFAULT_NETWORK_ID, validate_network_id
from repro.sim.topology import Placement


class MonitorMode(str, Enum):
    """How (and whether) nodes ship telemetry."""

    NONE = "none"
    OUT_OF_BAND = "oob"
    IN_BAND = "inband"
    #: In-band with end-to-end acknowledgement and retry (at-least-once).
    IN_BAND_RELIABLE = "inband_reliable"


class Environment(str, Enum):
    """Path-loss environment presets."""

    SUBURBAN = "suburban"
    URBAN = "urban"
    RURAL = "rural"


@dataclass(frozen=True)
class WorkloadSpec:
    """Application traffic description.

    Attributes:
        kind: "periodic", "poisson", "bursty", "event" or "none".
        pattern: "convergecast" (all nodes -> gateway) or "random_pairs".
        interval_s: period for periodic/bursty/event kinds.
        rate_per_s: rate for the poisson kind.
        payload_bytes: application payload per message.
        n_pairs: pair count for the random_pairs pattern.
    """

    kind: str = "periodic"
    pattern: str = "convergecast"
    interval_s: float = 120.0
    rate_per_s: float = 0.01
    payload_bytes: int = 24
    n_pairs: int = 10

    def __post_init__(self) -> None:
        if self.kind not in ("periodic", "poisson", "bursty", "event", "none"):
            raise ConfigurationError(f"unknown workload kind {self.kind!r}")
        if self.pattern not in ("convergecast", "random_pairs"):
            raise ConfigurationError(f"unknown workload pattern {self.pattern!r}")
        if self.interval_s <= 0 or self.rate_per_s <= 0:
            raise ConfigurationError("workload interval/rate must be > 0")
        if self.payload_bytes < 0:
            raise ConfigurationError("payload_bytes must be >= 0")


@dataclass(frozen=True)
class MobilitySpec:
    """Node movement description.

    Attributes:
        fraction_mobile: share of nodes that move (the gateway never
            moves — it has wired power and the Internet uplink).
        speed_mps: mean speed; random-waypoint draws speeds in
            [0.5x, 1.5x] of this.
        pause_s: mean pause at waypoints.
        update_interval_s: position update granularity.
    """

    fraction_mobile: float = 0.3
    speed_mps: float = 1.5
    pause_s: float = 30.0
    update_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if not (0.0 < self.fraction_mobile <= 1.0):
            raise ConfigurationError(
                f"fraction_mobile must be in (0,1], got {self.fraction_mobile}"
            )
        if self.speed_mps <= 0:
            raise ConfigurationError(f"speed_mps must be > 0, got {self.speed_mps}")
        if self.pause_s < 0:
            raise ConfigurationError(f"pause_s must be >= 0, got {self.pause_s}")
        if self.update_interval_s <= 0:
            raise ConfigurationError(
                f"update_interval_s must be > 0, got {self.update_interval_s}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description.

    Attributes:
        seed: master seed; every stochastic stream derives from it.
        n_nodes: deployment size (node addresses 1..n).
        area_m: deployment square side (metres); ``None`` auto-sizes the
            area so grid neighbors sit at ~70 % of the mean PHY range.
        placement: node placement strategy.
        environment: path-loss preset.
        spreading_factor / tx_power_dbm: radio settings for every node.
        protocol: "dv" (LoRaMesher-style) or "flood" (Meshtastic-style).
        mesh: mesh stack tunables.
        monitor_mode: telemetry path (or none, the overhead baseline).
        report_interval_s: client flush period.
        packet_sample_rate: fraction of packet observations the clients
            capture (1.0 = everything); in-band mode has its own tighter
            default and ignores this unless set below it.
        uplink_loss: out-of-band uplink loss probability.
        gateway: address hosting the gateway/monitoring bridge (and the
            convergecast sink).  Defaults to node 1.
        warmup_s: time before traffic starts (routing convergence).
        duration_s: measured traffic window.
        cooldown_s: drain time after traffic stops, so in-flight frames
            and final telemetry batches arrive before measurement.
        workload: application traffic spec.
        capture_trace: enable the observability layer — a
            :class:`~repro.obs.recorder.FlightRecorder` reconstructing
            per-message lifecycles, a :class:`~repro.obs.spans.SpanProfiler`
            timing engine events, and a trace log that keeps the last
            500,000 events for export.  Off by default: the trace log then
            keeps no events (``trace.events()`` raises), while its exact
            counters (``count``, ``total_emitted``) and the ground truth
            still see every one.
        network_id: mesh network this scenario's telemetry reports
            under.  Single-network runs keep the implicit ``default``;
            fleet experiments run N scenarios with distinct ids feeding
            one shared multi-tenant server.
    """

    seed: int = 1
    n_nodes: int = 25
    area_m: Optional[float] = None
    placement: Placement = Placement.GRID
    environment: Environment = Environment.SUBURBAN
    spreading_factor: int = 7
    tx_power_dbm: float = 14.0
    protocol: str = "dv"
    mesh: MeshConfig = field(default_factory=MeshConfig)
    monitor_mode: MonitorMode = MonitorMode.OUT_OF_BAND
    report_interval_s: float = 60.0
    packet_sample_rate: float = 1.0
    uplink_loss: float = 0.0
    gateway: int = 1
    warmup_s: float = 1800.0
    duration_s: float = 3600.0
    cooldown_s: float = 120.0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: Optional node movement (None = static deployment, the paper's case).
    mobility: Optional[MobilitySpec] = None
    capture_trace: bool = False
    network_id: str = DEFAULT_NETWORK_ID

    def __post_init__(self) -> None:
        try:
            validate_network_id(self.network_id)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        if self.n_nodes < 2:
            raise ConfigurationError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if self.protocol not in ("dv", "flood"):
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")
        if not (1 <= self.gateway <= self.n_nodes):
            raise ConfigurationError(
                f"gateway {self.gateway} outside node range 1..{self.n_nodes}"
            )
        if self.warmup_s < 0 or self.duration_s <= 0 or self.cooldown_s < 0:
            raise ConfigurationError("warmup/duration/cooldown must be sane")
        if not (0.0 <= self.uplink_loss <= 1.0):
            raise ConfigurationError(f"uplink_loss must be 0..1, got {self.uplink_loss}")
        if self.report_interval_s <= 0:
            raise ConfigurationError("report_interval_s must be > 0")
        if not (0.0 <= self.packet_sample_rate <= 1.0):
            raise ConfigurationError(
                f"packet_sample_rate must be 0..1, got {self.packet_sample_rate}"
            )

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """Copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)
