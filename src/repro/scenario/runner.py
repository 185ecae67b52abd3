"""Scenario construction and execution.

``run_scenario(config)`` is the one-call entry point used by the examples
and every bench: it builds the world (topology, PHY, mesh nodes), wires the
monitoring system in the requested mode, drives the configured workload
through warmup / measurement / cooldown phases, and returns a
:class:`~repro.scenario.results.ScenarioResult` with live handles and
ground truth.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.baselines.lorawan import LoRaWANGateway, LoRaWANNetwork, LoRaWANNode
from repro.errors import ConfigurationError
from repro.mesh.node import MeshNode
from repro.mesh.packet import PacketType
from repro.monitor.client import MonitorClient, MonitorClientConfig
from repro.monitor.server import MonitorServer
from repro.monitor.storage import MetricsStore
from repro.monitor.uplink import (
    GatewayBridge,
    InBandUplink,
    OutOfBandUplink,
    ReliableInBandUplink,
    Uplink,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import SpanProfiler
from repro.phy.channel import Channel
from repro.phy.link import LinkModel, PathLossParams
from repro.phy.params import LoRaParams
from repro.scenario.config import Environment, MonitorMode, ScenarioConfig, WorkloadSpec
from repro.scenario.results import GroundTruth, ScenarioResult
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.topology import Placement, Topology, make_topology
from repro.sim.trace import TraceLog
from repro.workloads.generators import (
    BurstyWorkload,
    EventWorkload,
    PeriodicWorkload,
    PoissonWorkload,
    Workload,
    convergecast,
    random_pairs,
)


def path_loss_for(environment: Environment) -> PathLossParams:
    """Environment preset -> path-loss parameters."""
    if environment is Environment.URBAN:
        return PathLossParams.urban()
    if environment is Environment.RURAL:
        return PathLossParams.free_space_like()
    return PathLossParams()


def auto_area_m(config: ScenarioConfig, link_model: LinkModel, params: LoRaParams) -> float:
    """Deployment side length so neighbors sit inside reliable range.

    Grid spacing targets ~60 % of the mean PHY range (multi-hop without
    constant link flapping); other placements get an equivalent density.
    """
    mean_range = link_model.max_range_m(params)
    side = math.ceil(math.sqrt(config.n_nodes))
    spacing = 0.6 * mean_range
    if config.placement is Placement.LINE:
        return spacing * max(config.n_nodes - 1, 1)
    return spacing * max(side - 1, 1)


class Scenario:
    """A built (but not yet run) scenario.

    Args:
        config: the experiment description.
        server: optional **shared** :class:`MonitorServer` to report
            into instead of building a private one — the fleet shape,
            where N scenarios with distinct ``config.network_id`` values
            feed one multi-tenant server.  A shared server is not owned:
            :meth:`close` leaves it (and its stores) running for the
            other scenarios; whoever created it closes it.
        ingest_target: optional override for where out-of-band uplinks
            POST batches — anything with ``ingest_json(bytes)``, e.g. an
            :class:`~repro.monitor.uplink.HttpIngestClient` so telemetry
            crosses a real ``/api/v1`` HTTP boundary instead of calling
            the server object directly.  Defaults to the server.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        server: Optional[MonitorServer] = None,
        ingest_target: Optional[object] = None,
    ) -> None:
        self.config = config
        self._shared_server = server
        self._ingest_target = ingest_target
        self.rng = RngRegistry(seed=config.seed)
        # The profiler is always present but disabled unless the scenario
        # opts in — the engine's disabled-path cost is a single local check
        # per event (pinned < 3 % by bench_o1_trace_overhead).
        self.profiler = SpanProfiler(enabled=config.capture_trace)
        self.sim = Simulator(profiler=self.profiler)
        self.profiler.attach_sim_clock(lambda: self.sim.now)
        # Without capture nothing reads the events, and keeping them would
        # leave tens of thousands of tuples for the garbage collector to walk;
        # counters and listeners (GroundTruth) see every event either way.
        self.trace = TraceLog(capacity=500_000 if config.capture_trace else 0)
        self.recorder: Optional[FlightRecorder] = None
        if config.capture_trace:
            self.recorder = FlightRecorder()
            self.recorder.attach(self.trace)
        self.params = LoRaParams(
            spreading_factor=config.spreading_factor,
            tx_power_dbm=config.tx_power_dbm,
        )
        self.link_model = LinkModel(path_loss_for(config.environment), self.rng.stream("link"))
        area = config.area_m if config.area_m is not None else auto_area_m(
            config, self.link_model, self.params
        )
        self.area_m = area
        self.topology = make_topology(config.placement, config.n_nodes, area, self.rng)
        self.channel = Channel(self.sim, self.topology, self.link_model, trace=self.trace)
        self.nodes: Dict[int, MeshNode] = {
            address: MeshNode(
                self.sim,
                self.channel,
                address,
                config=config.mesh,
                params=self.params,
                rng=self.rng,
                protocol=config.protocol,
                trace=self.trace,
            )
            for address in self.topology.nodes()
        }
        self.store: Optional[MetricsStore] = None
        self.server: Optional[MonitorServer] = None
        self.bridge: Optional[GatewayBridge] = None
        self.clients: Dict[int, MonitorClient] = {}
        self.uplinks: Dict[int, Uplink] = {}
        self.messengers: Dict[int, object] = {}
        self._build_monitoring()
        self.workloads: List[Workload] = []
        self._build_workloads()
        self.mobility = self._build_mobility()
        self.truth = GroundTruth(
            window_start=config.warmup_s,
            window_end=config.warmup_s + config.duration_s,
            ptype_filter=int(PacketType.DATA),
        )
        self.truth.attach(self.trace)

    # -- construction ----------------------------------------------------------

    def _build_monitoring(self) -> None:
        config = self.config
        if config.monitor_mode is MonitorMode.NONE:
            return
        if self._shared_server is not None:
            # Fleet mode: report into the injected multi-tenant server.
            # Create this network's shard eagerly so dashboards and the
            # fleet overview see it before the first batch lands.
            self.server = self._shared_server
            self.store = self.server.registry.get_or_create(config.network_id).store
        else:
            self.store = MetricsStore()
            self.server = MonitorServer(
                clock=lambda: self.sim.now,
                report_interval_s=config.report_interval_s,
            )
            self.server.registry.adopt(config.network_id, self.store)
        client_config = MonitorClientConfig(
            report_interval_s=config.report_interval_s,
            packet_sample_rate=config.packet_sample_rate,
            network_id=config.network_id,
        )
        ingest_target = self._ingest_target if self._ingest_target is not None else self.server
        if config.monitor_mode is MonitorMode.OUT_OF_BAND:
            for address, node in self.nodes.items():
                uplink = OutOfBandUplink(
                    self.sim,
                    ingest_target,
                    self.rng.stream(f"uplink.{address}"),
                    loss_probability=config.uplink_loss,
                )
                self.uplinks[address] = uplink
                self.clients[address] = MonitorClient(self.sim, node, uplink, client_config)
        else:  # IN_BAND(_RELIABLE): telemetry rides the mesh to the gateway.
            # In-band constraints: (a) small batches — a batch travels as one
            # segmented message and a single lost fragment loses the whole
            # batch; (b) sampled packet records — full promiscuous capture
            # does not fit the 1 % duty-cycle budget around the gateway
            # (exactly why the paper ships telemetry out-of-band).
            client_config = MonitorClientConfig(
                report_interval_s=config.report_interval_s,
                max_records_per_batch=40,
                packet_sample_rate=min(0.1, config.packet_sample_rate),
                status_every_n_flushes=2,
                network_id=config.network_id,
            )
            reliable = config.monitor_mode is MonitorMode.IN_BAND_RELIABLE
            gateway_node = self.nodes[config.gateway]
            self.bridge = GatewayBridge(
                gateway_node, self.server, network_id=config.network_id
            )
            if reliable:
                from repro.mesh.endtoend import ReliableMessenger

                for address, node in self.nodes.items():
                    self.messengers[address] = ReliableMessenger(
                        self.sim, node, timeout_s=45.0, max_attempts=3,
                    )
            for address, node in self.nodes.items():
                if address == config.gateway:
                    # The gateway has the Internet connection: its own
                    # records go out-of-band.
                    uplink: Uplink = OutOfBandUplink(
                        self.sim,
                        ingest_target,
                        self.rng.stream(f"uplink.{address}"),
                        loss_probability=config.uplink_loss,
                    )
                elif reliable:
                    uplink = ReliableInBandUplink(self.messengers[address], config.gateway)
                else:
                    uplink = InBandUplink(node, config.gateway)
                self.uplinks[address] = uplink
                self.clients[address] = MonitorClient(self.sim, node, uplink, client_config)

    def _build_workloads(self) -> None:
        spec = self.config.workload
        if spec.kind == "none":
            return
        if spec.pattern == "convergecast":
            pairs = convergecast(list(self.nodes.values()), self.config.gateway)
        else:
            pairs = random_pairs(
                list(self.nodes.values()), spec.n_pairs, self.rng.stream("workload.pairs")
            )
        for node, dst in pairs:
            stream = self.rng.stream(f"workload.{node.address}")
            self.workloads.append(self._make_workload(spec, node, dst, stream))

    def _make_workload(self, spec: WorkloadSpec, node: MeshNode, dst: int, stream) -> Workload:
        if spec.kind == "periodic":
            return PeriodicWorkload(
                self.sim, node, dst, interval_s=spec.interval_s,
                payload_bytes=spec.payload_bytes, rng=stream,
            )
        if spec.kind == "poisson":
            return PoissonWorkload(
                self.sim, node, dst, rate_per_s=spec.rate_per_s,
                payload_bytes=spec.payload_bytes, rng=stream,
            )
        if spec.kind == "bursty":
            return BurstyWorkload(
                self.sim, node, dst, burst_interval_s=spec.interval_s,
                payload_bytes=spec.payload_bytes, rng=stream,
            )
        if spec.kind == "event":
            return EventWorkload(
                self.sim, node, dst, check_interval_s=spec.interval_s,
                payload_bytes=spec.payload_bytes, rng=stream,
            )
        raise ConfigurationError(f"unknown workload kind {spec.kind!r}")

    def _build_mobility(self):
        spec = self.config.mobility
        if spec is None:
            return None
        from repro.sim.mobility import RandomWaypointMobility

        candidates = [
            address for address in self.topology.nodes()
            if address != self.config.gateway
        ]
        stream = self.rng.stream("mobility")
        count = max(1, round(spec.fraction_mobile * len(candidates)))
        mobile = stream.sample(candidates, min(count, len(candidates)))
        mobility = RandomWaypointMobility(
            sim=self.sim,
            topology=self.topology,
            nodes=mobile,
            rng=stream,
            area_m=self.area_m,
            speed_range_mps=(spec.speed_mps * 0.5, spec.speed_mps * 1.5),
            pause_range_s=(0.0, spec.pause_s * 2.0),
            update_interval_s=spec.update_interval_s,
            trace=self.trace,
        )
        mobility.start()
        return mobility

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release monitoring resources (flush + close the store).

        After :meth:`run` the returned :class:`ScenarioResult` co-owns
        the store; closes are idempotent, so either handle may close.
        A shared (injected) server is left running — its owner closes
        it, and with it every network's store.
        """
        if self._shared_server is not None:
            return
        if self.server is not None:
            self.server.close()
        elif self.store is not None:
            self.store.close()

    def __enter__(self) -> "Scenario":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- execution ----------------------------------------------------------------

    def run(self) -> ScenarioResult:
        """Warmup -> measured traffic -> cooldown; returns the result."""
        config = self.config
        profiler = self.profiler
        with profiler.span("scenario.warmup"):
            self.sim.run(until=config.warmup_s)
        for workload in self.workloads:
            workload.start()
        with profiler.span("scenario.traffic"):
            self.sim.run(until=config.warmup_s + config.duration_s)
        for workload in self.workloads:
            workload.stop()
        with profiler.span("scenario.cooldown"):
            self.sim.run(until=config.warmup_s + config.duration_s + config.cooldown_s)
        # Final telemetry flush so the server sees the full window.
        with profiler.span("scenario.drain"):
            for client in self.clients.values():
                client.flush()
            self.sim.run(until=self.sim.now + 30.0)
        return ScenarioResult(
            config=config,
            sim=self.sim,
            topology=self.topology,
            link_model=self.link_model,
            channel=self.channel,
            trace=self.trace,
            nodes=self.nodes,
            workloads=self.workloads,
            clients=self.clients,
            uplinks=self.uplinks,
            server=self.server,
            store=self.store,
            bridge=self.bridge,
            truth=self.truth,
            mobility=self.mobility,
            messengers=self.messengers,
            recorder=self.recorder,
            profiler=self.profiler,
        )


def run_scenario(
    config: ScenarioConfig,
    server: Optional[MonitorServer] = None,
    ingest_target: Optional[object] = None,
) -> ScenarioResult:
    """Build and run one scenario (see :class:`Scenario` for the knobs)."""
    return Scenario(config, server=server, ingest_target=ingest_target).run()


def build_lorawan_star(
    config: ScenarioConfig,
    topology: Optional[Topology] = None,
) -> "tuple[Simulator, LoRaWANNetwork, Topology]":
    """Build the LoRaWAN star baseline over the same geometry.

    The gateway sits at the node address ``config.gateway``'s position; all
    other nodes send periodic uplinks straight to it (no mesh).  Used by
    experiment F8.
    """
    rng = RngRegistry(seed=config.seed)
    sim = Simulator()
    params = LoRaParams(
        spreading_factor=config.spreading_factor, tx_power_dbm=config.tx_power_dbm
    )
    link_model = LinkModel(path_loss_for(config.environment), rng.stream("link"))
    if topology is None:
        area = config.area_m if config.area_m is not None else auto_area_m(
            config, link_model, params
        )
        topology = make_topology(config.placement, config.n_nodes, area, rng)
    channel = Channel(sim, topology, link_model)
    gateway = LoRaWANGateway(sim, channel, config.gateway)
    network = LoRaWANNetwork(gateway=gateway)
    for address in topology.nodes():
        if address == config.gateway:
            continue
        network.nodes.append(
            LoRaWANNode(
                sim,
                channel,
                address,
                gateway,
                interval_s=config.workload.interval_s,
                payload_bytes=config.workload.payload_bytes,
                params=params,
                rng=rng.stream(f"lorawan.{address}"),
            )
        )
    return sim, network, topology
