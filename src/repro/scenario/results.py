"""Scenario results: simulator-side ground truth and derived summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.mesh.addressing import BROADCAST
from repro.sim.trace import TraceEvent, TraceLog


@dataclass
class GroundTruth:
    """What actually happened, tallied live from the trace log.

    Fragment-level counters use the same granularity as the monitoring
    system's packet records, so observed-vs-truth comparisons are
    apples-to-apples.
    """

    #: (src, dst) -> unicast fragments originated.
    frag_sent: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: (src, dst) -> unicast fragments delivered at dst.
    frag_delivered: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: (src, dst) -> messages originated.
    msg_sent: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: (src, dst) -> messages fully delivered (reassembled) at dst.
    msg_delivered: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: per-message origination times, for latency: (src, msg_id) -> t.
    msg_origin_time: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: per-message delivery latencies (first delivery only).
    msg_latency: Dict[Tuple[int, int], float] = field(default_factory=dict)
    phy_tx: int = 0
    phy_rx: int = 0
    phy_collisions: int = 0
    phy_below_sensitivity: int = 0
    window_start: float = 0.0
    window_end: float = math.inf
    #: restrict counting to this traffic type (None = all).
    ptype_filter: Optional[int] = None

    def attach(self, trace: TraceLog) -> None:
        """Subscribe to a trace log and tally events as they happen."""
        trace.subscribe(self._on_event)

    def _in_window(self, time: float) -> bool:
        return self.window_start <= time <= self.window_end

    def _on_event(self, event: TraceEvent) -> None:
        if not self._in_window(event.time):
            return
        kind = event.kind
        data = event.data
        if kind == "phy.tx":
            self.phy_tx += 1
        elif kind == "phy.rx":
            self.phy_rx += 1
        elif kind == "phy.collision":
            self.phy_collisions += 1
        elif kind == "phy.below_sensitivity":
            # One event per frame, carrying how many receivers it stands for.
            self.phy_below_sensitivity += data["count"]
        elif kind == "mesh.frag_origin":
            if self._wrong_type(data):
                return
            dst = data["dst"]
            if dst == BROADCAST:
                return
            key = (event.node, dst)
            self.frag_sent[key] = self.frag_sent.get(key, 0) + 1
        elif kind == "mesh.frag_deliver":
            if self._wrong_type(data):
                return
            dst = data["dst"]
            if dst == BROADCAST or event.node != dst:
                return
            key = (data["src"], dst)
            self.frag_delivered[key] = self.frag_delivered.get(key, 0) + 1
        elif kind == "mesh.origin":
            if self._wrong_type(data):
                return
            dst = data["dst"]
            if dst == BROADCAST:
                return
            key = (event.node, dst)
            self.msg_sent[key] = self.msg_sent.get(key, 0) + 1
            self.msg_origin_time[(event.node, data["msg_id"])] = event.time
        elif kind == "mesh.deliver":
            if self._wrong_type(data):
                return
            src = data["src"]
            key = (src, event.node)
            self.msg_delivered[key] = self.msg_delivered.get(key, 0) + 1
            msg_key = (src, data["msg_id"])
            if msg_key in self.msg_origin_time and msg_key not in self.msg_latency:
                self.msg_latency[msg_key] = event.time - self.msg_origin_time[msg_key]

    def _wrong_type(self, data: Dict) -> bool:
        return self.ptype_filter is not None and data.get("ptype") != self.ptype_filter

    # -- summaries -----------------------------------------------------------

    @property
    def total_frag_sent(self) -> int:
        return sum(self.frag_sent.values())

    @property
    def total_frag_delivered(self) -> int:
        # Delivered counts are capped per pair: late duplicates can in
        # principle exceed sent within a window boundary.
        return sum(
            min(count, self.frag_sent.get(key, count))
            for key, count in self.frag_delivered.items()
        )

    @property
    def frag_pdr(self) -> float:
        sent = self.total_frag_sent
        return self.total_frag_delivered / sent if sent else math.nan

    @property
    def total_msg_sent(self) -> int:
        return sum(self.msg_sent.values())

    @property
    def total_msg_delivered(self) -> int:
        return sum(
            min(count, self.msg_sent.get(key, count))
            for key, count in self.msg_delivered.items()
        )

    @property
    def msg_pdr(self) -> float:
        sent = self.total_msg_sent
        return self.total_msg_delivered / sent if sent else math.nan

    @property
    def mean_latency_s(self) -> float:
        if not self.msg_latency:
            return math.nan
        return sum(self.msg_latency.values()) / len(self.msg_latency)

    def pair_pdr(self) -> Dict[Tuple[int, int], float]:
        """Message-level PDR per (src, dst)."""
        return {
            key: min(self.msg_delivered.get(key, 0), sent) / sent
            for key, sent in self.msg_sent.items()
            if sent > 0
        }


@dataclass
class ScenarioResult:
    """Everything a bench needs after a scenario run.

    Handles stay live: the caller can keep simulating (failure injection,
    extra traffic) and re-derive metrics.
    """

    config: object
    sim: object
    topology: object
    link_model: object
    channel: object
    trace: TraceLog
    nodes: Dict[int, object]
    workloads: list
    clients: Dict[int, object]
    uplinks: Dict[int, object]
    server: Optional[object]
    store: Optional[object]
    bridge: Optional[object]
    truth: GroundTruth
    mobility: Optional[object] = None
    messengers: Dict[int, object] = field(default_factory=dict)
    #: Flight recorder / span profiler, populated when the scenario ran
    #: with ``capture_trace=True`` (see :mod:`repro.obs`).
    recorder: Optional[object] = None
    profiler: Optional[object] = None

    def node(self, address: int):
        return self.nodes[address]

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush and close the monitoring store (idempotent).

        Call when done with the result — or use the result as a context
        manager — so buffered SQLite-backed telemetry is never dropped.
        """
        target = self.server if self.server is not None else self.store
        close = getattr(target, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "ScenarioResult":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def total_mesh_airtime_s(self) -> float:
        """Sum of transmit airtime across all mesh nodes."""
        return sum(node.mac.stats.tx_airtime_s for node in self.nodes.values())

    def total_mesh_tx_bytes(self) -> int:
        return sum(node.mac.stats.tx_bytes for node in self.nodes.values())

    def telemetry_records_captured(self) -> int:
        return sum(client.stats.records_captured for client in self.clients.values())

    def telemetry_records_stored(self) -> int:
        return self.store.packet_record_count() if self.store is not None else 0

    def telemetry_delivery_ratio(self) -> float:
        """Fraction of captured-and-shipped packet records that reached the
        server.

        Records still sitting in client buffers at the end of the run (the
        tail after the final flush) have not had a chance to arrive and are
        excluded from the denominator.
        """
        captured = self.telemetry_records_captured()
        backlog = sum(client.backlog for client in self.clients.values())
        eligible = captured - backlog
        if eligible <= 0:
            return math.nan
        return min(self.telemetry_records_stored() / eligible, 1.0)

    def uplink_bytes_total(self) -> int:
        return sum(uplink.stats.bytes_sent for uplink in self.uplinks.values())

    def energy_by_node(self) -> Dict[int, float]:
        """Consumed charge per node in mAh (accounts the open interval)."""
        energy = {}
        for address, node in self.nodes.items():
            node.mac.radio.finalize(self.sim.now)
            energy[address] = node.mac.radio.consumed_mah()
        return energy
