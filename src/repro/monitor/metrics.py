"""Metric aggregations over the metrics store.

These functions define everything the dashboard shows, from raw packet
and status records:

* per-link quality (RSSI/SNR statistics per directed radio link),
* packet delivery ratio per (src, dst) pair, correlated by the
  origin-assigned packet id observed at both ends,
* traffic matrix (frames/bytes originated per pair),
* per-node airtime and duty-cycle utilisation,
* end-to-end delivery latency,
* traffic composition by packet type,
* the network graph as reported by the nodes' own neighbor tables.

Each function scans the store's retained records, so its cost grows with
history.  They are the definition, the test oracle and the offline API:
page views read the store's
:class:`~repro.monitor.aggregate.ViewAggregate` instead, which keeps
the dashboard's panels exact at ingest time, and the property tests
check every view against these scans.  So that a value depends only on
the retained records and not on the order a scan visits them in, float
sums are exact (:func:`math.fsum`) and a latency sample is the
destination's earliest IN record minus the origin's earliest
first-attempt OUT record.

Every function takes one store, and on a multi-tenant server each
network has its own store (its shard), so all aggregations here are
naturally network-scoped — nothing ever mixes tenants; fleet-level
rollups live in :mod:`repro.monitor.fleet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.mesh.addressing import BROADCAST
from repro.mesh.packet import PacketType
from repro.monitor.aggregate import nearest_rank
from repro.monitor.records import Direction
from repro.monitor.storage import MetricsStore


@dataclass
class LinkQuality:
    """RSSI/SNR statistics for one directed link (tx -> rx); the sums
    are exact (:func:`math.fsum`)."""

    tx: int
    rx: int
    frames: int = 0
    rssi_sum: float = 0.0
    rssi_min: float = math.inf
    rssi_max: float = -math.inf
    snr_sum: float = 0.0

    @property
    def rssi_mean(self) -> float:
        return self.rssi_sum / self.frames if self.frames else math.nan

    @property
    def snr_mean(self) -> float:
        return self.snr_sum / self.frames if self.frames else math.nan


def link_quality(
    store: MetricsStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[Tuple[int, int], LinkQuality]:
    """Per-directed-link quality from IN records (prev_hop -> observer)."""
    rssi: Dict[Tuple[int, int], List[float]] = {}
    snr: Dict[Tuple[int, int], List[float]] = {}
    for record in store.packet_records(direction=Direction.IN, since=since, until=until):
        if record.rssi_dbm is None or record.snr_db is None:
            continue
        key = (record.prev_hop, record.node)
        if key not in rssi:
            rssi[key] = []
            snr[key] = []
        rssi[key].append(record.rssi_dbm)
        snr[key].append(record.snr_db)
    return {
        key: LinkQuality(
            tx=key[0],
            rx=key[1],
            frames=len(values),
            rssi_sum=math.fsum(values),
            rssi_min=min(values),
            rssi_max=max(values),
            snr_sum=math.fsum(snr[key]),
        )
        for key, values in rssi.items()
    }


@dataclass
class PairDelivery:
    """Observed delivery between one (src, dst) pair."""

    src: int
    dst: int
    sent_packet_ids: Set[int] = field(default_factory=set)
    delivered_packet_ids: Set[int] = field(default_factory=set)

    @property
    def sent(self) -> int:
        return len(self.sent_packet_ids)

    @property
    def delivered(self) -> int:
        return len(self.delivered_packet_ids & self.sent_packet_ids)

    @property
    def pdr(self) -> float:
        return self.delivered / self.sent if self.sent else math.nan


def pdr_matrix(
    store: MetricsStore,
    ptype: int = int(PacketType.DATA),
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[Tuple[int, int], PairDelivery]:
    """Packet delivery ratio per (src, dst), observed from both endpoints.

    A packet counts as *sent* when its origin reports an OUT record for it
    (first attempt) and as *delivered* when the destination reports an IN
    record with a matching (src, packet_id).  Only unicast pairs appear.
    """
    pairs: Dict[Tuple[int, int], PairDelivery] = {}

    def pair(src: int, dst: int) -> PairDelivery:
        key = (src, dst)
        entry = pairs.get(key)
        if entry is None:
            entry = PairDelivery(src=src, dst=dst)
            pairs[key] = entry
        return entry

    for record in store.packet_records(direction=Direction.OUT, ptype=ptype, since=since, until=until):
        if record.dst == BROADCAST:
            continue
        if record.node == record.src and record.attempt == 1:
            pair(record.src, record.dst).sent_packet_ids.add(record.packet_id)
    for record in store.packet_records(direction=Direction.IN, ptype=ptype, since=since, until=until):
        if record.dst == BROADCAST or record.node != record.dst:
            continue
        pair(record.src, record.dst).delivered_packet_ids.add(record.packet_id)
    return pairs


def network_pdr(
    store: MetricsStore,
    ptype: int = int(PacketType.DATA),
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> float:
    """Aggregate PDR across all unicast pairs (NaN when nothing was sent)."""
    pairs = pdr_matrix(store, ptype=ptype, since=since, until=until)
    sent = sum(p.sent for p in pairs.values())
    delivered = sum(p.delivered for p in pairs.values())
    return delivered / sent if sent else math.nan


@dataclass(frozen=True)
class TrafficCell:
    """Originated traffic for one (src, dst) pair."""

    src: int
    dst: int
    frames: int
    bytes: int


def traffic_matrix(
    store: MetricsStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[Tuple[int, int], TrafficCell]:
    """Frames/bytes originated per (src, dst), from first-attempt OUT records."""
    frames: Dict[Tuple[int, int], int] = {}
    sizes: Dict[Tuple[int, int], int] = {}
    for record in store.packet_records(direction=Direction.OUT, since=since, until=until):
        if record.node != record.src or record.attempt != 1:
            continue
        key = (record.src, record.dst)
        frames[key] = frames.get(key, 0) + 1
        sizes[key] = sizes.get(key, 0) + record.size_bytes
    return {
        key: TrafficCell(src=key[0], dst=key[1], frames=frames[key], bytes=sizes[key])
        for key in frames
    }


def airtime_by_node(
    store: MetricsStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[int, float]:
    """Total transmit airtime (s) per node from OUT records."""
    airtime: Dict[int, float] = {}
    for record in store.packet_records(direction=Direction.OUT, since=since, until=until):
        airtime[record.node] = airtime.get(record.node, 0.0) + (record.airtime_s or 0.0)
    return airtime


def duty_cycle_by_node(
    store: MetricsStore,
    window_s: float,
    until: Optional[float] = None,
) -> Dict[int, float]:
    """Airtime fraction per node over the trailing ``window_s`` seconds."""
    if until is None:
        bounds = store.time_bounds()
        until = bounds[1] if bounds else 0.0
    since = until - window_s
    return {
        node: airtime / window_s
        for node, airtime in airtime_by_node(store, since=since, until=until).items()
    }


@dataclass
class LatencyStats:
    """End-to-end latency samples for one (src, dst) pair."""

    src: int
    dst: int
    samples: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return math.fsum(self.samples) / len(self.samples) if self.samples else math.nan

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100) by nearest-rank."""
        return nearest_rank(sorted(self.samples), q)


def delivery_latency(
    store: MetricsStore,
    ptype: int = int(PacketType.DATA),
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[Tuple[int, int], LatencyStats]:
    """Origin-to-destination latency per unicast pair, correlated by packet id.

    One sample per packet id that both ends reported (the ids
    :func:`pdr_matrix` counts as delivered): the destination's earliest
    IN record minus the origin's earliest first-attempt OUT record.
    """
    sent: Dict[Tuple[int, int, int], float] = {}
    for record in store.packet_records(direction=Direction.OUT, ptype=ptype, since=since, until=until):
        if record.dst == BROADCAST or record.node != record.src or record.attempt != 1:
            continue
        key = (record.src, record.dst, record.packet_id)
        if key not in sent or record.timestamp < sent[key]:
            sent[key] = record.timestamp
    delivered: Dict[Tuple[int, int, int], float] = {}
    for record in store.packet_records(direction=Direction.IN, ptype=ptype, since=since, until=until):
        if record.dst == BROADCAST or record.node != record.dst:
            continue
        key = (record.src, record.dst, record.packet_id)
        if key not in delivered or record.timestamp < delivered[key]:
            delivered[key] = record.timestamp
    stats: Dict[Tuple[int, int], LatencyStats] = {}
    for (src, dst, packet_id), received in delivered.items():
        origin = sent.get((src, dst, packet_id))
        if origin is None:
            continue
        entry = stats.get((src, dst))
        if entry is None:
            entry = stats[(src, dst)] = LatencyStats(src=src, dst=dst)
        entry.samples.append(received - origin)
    return stats


@dataclass(frozen=True)
class TypeBreakdownRow:
    """Traffic composition entry for one packet type."""

    ptype: int
    name: str
    frames_out: int
    bytes_out: int
    airtime_s: float


def type_breakdown(
    store: MetricsStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> List[TypeBreakdownRow]:
    """Transmitted frames/bytes/airtime per packet type (protocol overhead
    vs user payload — the composition panel)."""
    frames: Dict[int, int] = {}
    sizes: Dict[int, int] = {}
    airtime: Dict[int, List[float]] = {}
    for record in store.packet_records(direction=Direction.OUT, since=since, until=until):
        frames[record.ptype] = frames.get(record.ptype, 0) + 1
        sizes[record.ptype] = sizes.get(record.ptype, 0) + record.size_bytes
        airtime.setdefault(record.ptype, []).append(record.airtime_s or 0.0)
    return [
        TypeBreakdownRow(
            ptype=ptype,
            name=packet_type_name(ptype),
            frames_out=frames[ptype],
            bytes_out=sizes[ptype],
            airtime_s=math.fsum(airtime[ptype]),
        )
        for ptype in sorted(frames)
    ]


def packet_type_name(ptype: int) -> str:
    """The name of a numeric packet type, ``UNKNOWN(n)`` when it has none."""
    try:
        return PacketType(ptype).name
    except ValueError:
        return f"UNKNOWN({ptype})"


@dataclass(frozen=True)
class GraphEdge:
    """One directed edge of the reported neighbor graph."""

    tx: int
    rx: int
    rssi_dbm: float
    snr_db: float
    frames_heard: int


def neighbor_graph(store: MetricsStore) -> List[GraphEdge]:
    """Network graph as the nodes themselves report it.

    Each node's *latest* status record carries its neighbor table; the
    edge (neighbor -> node) means "node hears neighbor".
    """
    edges: List[GraphEdge] = []
    for node in store.nodes():
        status = store.latest_status(node)
        if status is None:
            continue
        for neighbor in status.neighbors:
            edges.append(
                GraphEdge(
                    tx=neighbor.address,
                    rx=node,
                    rssi_dbm=neighbor.rssi_dbm,
                    snr_db=neighbor.snr_db,
                    frames_heard=neighbor.frames_heard,
                )
            )
    return edges


def retransmission_rate(
    store: MetricsStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[int, float]:
    """Fraction of each node's DATA transmissions that were retries."""
    first: Dict[int, int] = {}
    retries: Dict[int, int] = {}
    for record in store.packet_records(direction=Direction.OUT, ptype=int(PacketType.DATA), since=since, until=until):
        if record.attempt == 1:
            first[record.node] = first.get(record.node, 0) + 1
        else:
            retries[record.node] = retries.get(record.node, 0) + 1
    result = {}
    for node in set(first) | set(retries):
        total = first.get(node, 0) + retries.get(node, 0)
        result[node] = retries.get(node, 0) / total if total else math.nan
    return result
