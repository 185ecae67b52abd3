"""Per-node mesh runtime.

A :class:`MeshNode` owns one radio/MAC, a neighbor table, either a
distance-vector route table (``protocol="dv"``, LoRaMesher-style) or a
managed-flooding policy (``protocol="flood"``, Meshtastic-style), and the
periodic timers that drive hellos, routing broadcasts and table maintenance.

The node exposes the two observation points the paper's monitoring client
needs — ``on_packet_in`` fires for **every** frame the radio demodulates
(the medium is broadcast, so this includes frames addressed elsewhere) and
``on_packet_out`` fires at every physical transmission — plus a
:meth:`status` snapshot used for the periodic node-status records.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.mesh.addressing import BROADCAST, validate_address
from repro.mesh.config import MeshConfig
from repro.mesh.flooding import DedupCache, FloodingPolicy
from repro.mesh.mac import CsmaMac
from repro.mesh.neighbors import NeighborTable
from repro.mesh.packet import (
    FLAG_ACK_REQUESTED,
    FLAG_FRAGMENT,
    AckPayload,
    HelloPayload,
    Packet,
    PacketType,
    RoutePayload,
    MAX_PAYLOAD,
)
from repro.mesh.routing import RouteTable
from repro.mesh.transport import Fragment, Reassembler, segment_message
from repro.phy.channel import Channel, Reception
from repro.phy.params import LoRaParams
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

PROTOCOL_DV = "dv"
PROTOCOL_FLOOD = "flood"

PacketInHook = Callable[[float, Packet, Reception], None]
PacketOutHook = Callable[[float, Packet, float, int], None]
DeliverHook = Callable[["DeliveredMessage"], None]


@lru_cache(maxsize=1)
def _decode_route(raw: bytes) -> RoutePayload:
    """:meth:`RoutePayload.decode` behind a one-entry memo keyed by the bytes.

    A ROUTE frame is a broadcast that every neighbour in range receives
    with the same payload, so they share one decode (as does an unchanged
    vector advertised again).  Sharing is safe because
    :meth:`RouteTable.apply_vector` only reads the payload; a decode error
    is raised afresh every time, since ``lru_cache`` stores only results.
    """
    return RoutePayload.decode(raw)


@dataclass(frozen=True)
class DeliveredMessage:
    """A fully reassembled application message handed to the app layer."""

    src: int
    dst: int
    msg_id: int
    ptype: PacketType
    payload: bytes
    delivered_at: float


@dataclass
class NodeCounters:
    """Network-layer counters (the MAC keeps its own)."""

    originated: int = 0
    delivered: int = 0
    forwarded: int = 0
    duplicates: int = 0
    drops: Dict[str, int] = field(default_factory=dict)

    def drop(self, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1


class MeshNode:
    """One LoRa mesh node."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        address: int,
        config: Optional[MeshConfig] = None,
        params: Optional[LoRaParams] = None,
        rng: Optional[RngRegistry] = None,
        protocol: str = PROTOCOL_DV,
        trace: Optional[TraceLog] = None,
    ) -> None:
        if protocol not in (PROTOCOL_DV, PROTOCOL_FLOOD):
            raise ConfigurationError(f"unknown protocol {protocol!r}")
        self.address = validate_address(address)
        self.protocol = protocol
        self._sim = sim
        self._channel = channel
        self.config = config or MeshConfig()
        self.params = params or LoRaParams()
        self._rng = (rng or RngRegistry()).stream(f"node.{address}")
        self._trace = trace if trace is not None else channel.trace
        self.mac = CsmaMac(
            sim=sim,
            channel=channel,
            address=self.address,
            params=self.params,
            config=self.config,
            rng=self._rng,
            trace=self._trace,
        )
        self.neighbors = NeighborTable(timeout_s=self.config.neighbor_timeout_s)
        self.routes = self._make_route_table()
        self.flooding = FloodingPolicy(rng=self._rng)
        # DV-mode duplicate filter: a lost ACK makes the upstream hop
        # retransmit a frame we already accepted; we re-ACK but must not
        # deliver or forward it twice.
        self._dv_seen = DedupCache(512)
        self.reassembler = Reassembler()
        self.counters = NodeCounters()
        self._packet_ids = itertools.count(self._rng.randrange(0, 0x8000))
        self._msg_ids = itertools.count(self._rng.randrange(0, 0x8000))
        self.on_packet_in: List[PacketInHook] = []
        self.on_packet_out: List[PacketOutHook] = []
        self.on_deliver: List[DeliverHook] = []
        #: Optional battery model: callable returning volts at `now`.
        self.battery_volts: Callable[[float], float] = lambda now: 3.70
        self.boot_time = sim.now
        self.failed = False
        self._last_route_broadcast = -math.inf
        self._triggered_update_pending = False
        self._timers: List = []
        self.mac.on_frame_tx = self._frame_transmitted
        self._channel.attach(self.address, self._on_reception, self.mac.radio)
        self._start_timers()

    def _make_route_table(self) -> RouteTable:
        return RouteTable(
            own_address=self.address,
            infinity_metric=self.config.infinity_metric,
            route_timeout_s=self.config.route_timeout_s,
            poison_hold_s=2.0 * self.config.route_interval_s,
        )

    # -- lifecycle -----------------------------------------------------------

    def _start_timers(self) -> None:
        jitter = self._rng.uniform(0.0, self.config.jitter_s)
        self._timers = [
            self._sim.call_every(
                self.config.hello_interval_s,
                self._send_hello,
                start=self._sim.now + 1.0 + jitter,
            ),
            self._sim.call_every(
                self.config.hello_interval_s,
                self._maintenance,
                start=self._sim.now + self.config.hello_interval_s / 2 + jitter,
            ),
        ]
        if self.protocol == PROTOCOL_DV:
            self._timers.append(
                self._sim.call_every(
                    self.config.route_interval_s,
                    self._send_route_broadcast,
                    start=self._sim.now + 2.0 + jitter * 2,
                )
            )

    def fail(self) -> None:
        """Simulate an abrupt node failure (power loss)."""
        if self.failed:
            return
        self.failed = True
        for timer in self._timers:
            timer.cancel()
        self._timers = []
        self._channel.detach(self.address)
        self.mac.stop()
        self._trace.emit(self._sim.now, "node.fail", node=self.address)

    def recover(self) -> None:
        """Bring a failed node back (reboot): tables start empty."""
        if not self.failed:
            return
        self.failed = False
        self.boot_time = self._sim.now
        self.neighbors = NeighborTable(timeout_s=self.config.neighbor_timeout_s)
        self.routes = self._make_route_table()
        self._dv_seen = DedupCache(512)
        self.reassembler = Reassembler()
        self.mac = CsmaMac(
            sim=self._sim,
            channel=self._channel,
            address=self.address,
            params=self.params,
            config=self.config,
            rng=self._rng,
            trace=self._trace,
        )
        self.mac.on_frame_tx = self._frame_transmitted
        self._channel.attach(self.address, self._on_reception, self.mac.radio)
        self._start_timers()
        self._trace.emit(self._sim.now, "node.recover", node=self.address)

    @property
    def uptime_s(self) -> float:
        return self._sim.now - self.boot_time

    @property
    def trace(self) -> TraceLog:
        """The ground-truth trace this node emits into."""
        return self._trace

    # -- application interface -------------------------------------------------

    def send_message(
        self,
        dst: int,
        payload: bytes,
        ptype: PacketType = PacketType.DATA,
    ) -> Optional[int]:
        """Originate an application message towards ``dst``.

        Large payloads are segmented; each fragment travels as its own frame.

        Returns:
            The message id, or ``None`` when the message was dropped
            immediately (no route in DV mode, or node failed).
        """
        if self.failed:
            return None
        if ptype not in (PacketType.DATA, PacketType.TELEMETRY, PacketType.APP_ACK):
            raise ConfigurationError(
                f"send_message only carries DATA/TELEMETRY/APP_ACK, not {ptype}"
            )
        if self.protocol == PROTOCOL_DV and dst != BROADCAST:
            if self.routes.next_hop(dst) is None:
                self.counters.drop("no_route")
                self._trace.emit(self._sim.now, "mesh.drop", node=self.address, reason="no_route", dst=dst)
                # Give the refused message an id of its own so the flight
                # recorder can assign it a terminal verdict.  Consuming the
                # id is safe: ids only need to be unique per origin, and
                # ``mesh.origin`` is deliberately NOT emitted (the message
                # never entered the network, so PDR accounting is unchanged).
                refused_id = next(self._msg_ids) & 0xFFFF
                self._trace.emit(
                    self._sim.now,
                    "mesh.origin_refused",
                    node=self.address,
                    dst=dst,
                    msg_id=refused_id,
                    ptype=int(ptype),
                    size=len(payload),
                    reason="no_route",
                )
                return None
        msg_id = next(self._msg_ids) & 0xFFFF
        fragments = segment_message(msg_id, payload, mtu=MAX_PAYLOAD)
        self.counters.originated += 1
        self._trace.emit(
            self._sim.now,
            "mesh.origin",
            node=self.address,
            dst=dst,
            msg_id=msg_id,
            ptype=int(ptype),
            size=len(payload),
            n_fragments=len(fragments),
        )
        for fragment in fragments:
            packet = self._build_packet(dst, ptype, fragment)
            if packet is not None:
                self._trace.emit(
                    self._sim.now,
                    "mesh.frag_origin",
                    node=self.address,
                    dst=dst,
                    packet_id=packet.packet_id,
                    ptype=int(ptype),
                    msg_id=msg_id,
                    seg_index=fragment.seg_index,
                    seg_total=fragment.seg_total,
                )
                self.mac.send(packet)
        return msg_id

    def _build_packet(self, dst: int, ptype: PacketType, fragment: Fragment) -> Optional[Packet]:
        flags = FLAG_FRAGMENT
        if self.protocol == PROTOCOL_DV and dst != BROADCAST:
            next_hop = self.routes.next_hop(dst)
            if next_hop is None:
                self.counters.drop("no_route")
                return None
            flags |= FLAG_ACK_REQUESTED
        else:
            next_hop = BROADCAST
        packet = Packet(
            dst=dst,
            src=self.address,
            ptype=ptype,
            packet_id=next(self._packet_ids) & 0xFFFF,
            payload=fragment.encode(),
            next_hop=next_hop,
            prev_hop=self.address,
            ttl=self.config.hop_limit,
            flags=flags,
        )
        if self.protocol == PROTOCOL_FLOOD:
            # Mark our own packet as seen so we don't relay an echoed copy.
            self.flooding.cache.seen_before(packet.key(), self._sim.now)
        return packet

    # -- periodic behaviour -----------------------------------------------------

    def _send_hello(self) -> None:
        payload = HelloPayload(
            uptime_s=int(self.uptime_s),
            queue_depth=self.mac.queue_depth,
            route_count=len(self.routes),
            battery_centivolt=int(self.battery_volts(self._sim.now) * 100),
        )
        packet = Packet(
            dst=BROADCAST,
            src=self.address,
            ptype=PacketType.HELLO,
            packet_id=next(self._packet_ids) & 0xFFFF,
            payload=payload.encode(),
            next_hop=BROADCAST,
            prev_hop=self.address,
            ttl=1,
        )
        self.mac.send(packet)

    def _trigger_route_broadcast(self) -> None:
        """Schedule a change-driven ROUTE broadcast, rate-limited.

        Triggered updates propagate failures and new routes within seconds
        instead of waiting for the periodic interval — the standard RIP-style
        complement to route poisoning.
        """
        if self.failed or self.protocol != PROTOCOL_DV:
            return
        if self._triggered_update_pending:
            return
        gap = self._sim.now - self._last_route_broadcast
        if gap < self.config.triggered_update_min_gap_s:
            return
        self._triggered_update_pending = True
        delay = self._rng.uniform(0.5, 3.0)

        def fire() -> None:
            self._triggered_update_pending = False
            if not self.failed:
                self._send_route_broadcast()

        self._sim.call_in(delay, fire)

    def _send_route_broadcast(self) -> None:
        self._last_route_broadcast = self._sim.now
        payload = self.routes.advertised_vector()
        packet = Packet(
            dst=BROADCAST,
            src=self.address,
            ptype=PacketType.ROUTE,
            packet_id=next(self._packet_ids) & 0xFFFF,
            payload=payload.encode(),
            next_hop=BROADCAST,
            prev_hop=self.address,
            ttl=1,
        )
        self.mac.send(packet)

    def _maintenance(self) -> None:
        gone = self.neighbors.expire(self._sim.now)
        lost_any = False
        for neighbor in gone:
            lost = self.routes.poison_via(neighbor, self._sim.now)
            if lost:
                lost_any = True
                self._trace.emit(
                    self._sim.now,
                    "mesh.routes_lost",
                    node=self.address,
                    via=neighbor,
                    destinations=lost,
                )
        if self.routes.expire(self._sim.now):
            lost_any = True
        if lost_any:
            # Propagate the poison promptly instead of waiting for the
            # periodic broadcast.
            self._trigger_route_broadcast()

    # -- receive path ------------------------------------------------------------

    def _on_reception(self, reception: Reception) -> None:
        packet = reception.payload
        if not isinstance(packet, Packet):  # pragma: no cover - simulator contract
            return
        now = self._sim.now
        # Every demodulated frame updates the neighbor view and is visible
        # to the monitoring client (promiscuous observation).
        self.neighbors.observe(packet.prev_hop, reception.rssi_dbm, reception.snr_db, now)
        if self.protocol == PROTOCOL_DV:
            self.routes.observe_neighbor(packet.prev_hop, now)
        for hook in self.on_packet_in:
            hook(now, packet, reception)

        if packet.ptype == PacketType.HELLO:
            return
        if packet.ptype == PacketType.ROUTE:
            self._handle_route(packet, now)
            return
        if packet.ptype == PacketType.ACK:
            self._handle_ack(packet)
            return
        self._handle_data(packet, reception, now)

    def _handle_route(self, packet: Packet, now: float) -> None:
        if self.protocol != PROTOCOL_DV:
            return
        try:
            payload = _decode_route(packet.payload)
        except Exception:
            self.counters.drop("bad_route_payload")
            return
        poisoned_before = self.routes.poisoned_count
        self.routes.apply_vector(packet.prev_hop, payload, now)
        if self.routes.poisoned_count > poisoned_before:
            # A route we depended on was poisoned: propagate the bad news
            # quickly.  (Ordinary improvements ride the periodic broadcast —
            # triggering on every change causes correlated update storms.)
            self._trigger_route_broadcast()

    def _handle_ack(self, packet: Packet) -> None:
        if packet.next_hop != self.address:
            return
        try:
            ack = AckPayload.decode(packet.payload)
        except Exception:
            self.counters.drop("bad_ack_payload")
            return
        self.mac.handle_ack(ack.acked_src, ack.acked_packet_id, packet.prev_hop)

    def _handle_data(self, packet: Packet, reception: Reception, now: float) -> None:
        if self.protocol == PROTOCOL_FLOOD:
            self._handle_data_flood(packet, reception, now)
        else:
            self._handle_data_dv(packet, now)

    def _handle_data_dv(self, packet: Packet, now: float) -> None:
        if packet.next_hop != self.address and packet.next_hop != BROADCAST:
            return  # overheard traffic for someone else
        if packet.next_hop == self.address and packet.wants_ack:
            self._send_ack_for(packet)
        if self._dv_seen.seen_before(packet.key(), now):
            self.counters.duplicates += 1
            return
        if packet.dst == self.address or packet.dst == BROADCAST:
            self._deliver(packet, now)
            return
        # Forwarding role.
        if packet.ttl <= 1:
            self.counters.drop("ttl_exceeded")
            self._trace.emit(
                now, "mesh.drop", node=self.address, reason="ttl", dst=packet.dst,
                src=packet.src, packet_id=packet.packet_id,
            )
            return
        next_hop = self.routes.next_hop(packet.dst)
        if next_hop is None:
            self.counters.drop("no_route_forward")
            self._trace.emit(
                now, "mesh.drop", node=self.address, reason="no_route_forward", dst=packet.dst,
                src=packet.src, packet_id=packet.packet_id,
            )
            return
        self.counters.forwarded += 1
        self._trace.emit(
            now, "mesh.forward", node=self.address, dst=packet.dst, src=packet.src,
            packet_id=packet.packet_id,
        )
        self.mac.send(packet.hop(next_hop=next_hop, prev_hop=self.address))

    def _handle_data_flood(self, packet: Packet, reception: Reception, now: float) -> None:
        key = packet.key()
        already_seen = self.flooding.cache.seen_before(key, now)
        if already_seen:
            self.counters.duplicates += 1
            self.flooding.suppress(key)
            return
        if packet.dst == self.address or packet.dst == BROADCAST:
            self._deliver(packet, now)
        if packet.dst == self.address:
            return  # unicast reached its destination; no relay needed
        if packet.ttl <= 1:
            self._trace.emit(
                now, "mesh.drop", node=self.address, reason="ttl", dst=packet.dst,
                src=packet.src, packet_id=packet.packet_id,
            )
            return
        delay = self.flooding.rebroadcast_delay(reception.snr_db)
        relayed = packet.hop(next_hop=BROADCAST, prev_hop=self.address)

        def relay() -> None:
            if self.failed or self.flooding.is_suppressed(key):
                return
            self.counters.forwarded += 1
            self._trace.emit(
                now, "mesh.forward", node=self.address, dst=packet.dst, src=packet.src,
                packet_id=packet.packet_id,
            )
            self.mac.send(relayed)

        self._sim.call_in(delay, relay)

    def _send_ack_for(self, packet: Packet) -> None:
        ack = Packet(
            dst=packet.prev_hop,
            src=self.address,
            ptype=PacketType.ACK,
            packet_id=next(self._packet_ids) & 0xFFFF,
            payload=AckPayload(acked_src=packet.src, acked_packet_id=packet.packet_id).encode(),
            next_hop=packet.prev_hop,
            prev_hop=self.address,
            ttl=1,
        )
        self.mac.send_ack(ack)

    def _deliver(self, packet: Packet, now: float) -> None:
        if not packet.is_fragment:
            self.counters.drop("not_fragmented")
            return
        self._trace.emit(
            now,
            "mesh.frag_deliver",
            node=self.address,
            src=packet.src,
            dst=packet.dst,
            packet_id=packet.packet_id,
            ptype=int(packet.ptype),
        )
        try:
            fragment = Fragment.decode(packet.payload)
        except Exception:
            self.counters.drop("bad_fragment")
            return
        complete = self.reassembler.push(packet.src, fragment, now)
        if complete is None:
            return
        self.counters.delivered += 1
        message = DeliveredMessage(
            src=packet.src,
            dst=packet.dst,
            msg_id=fragment.msg_id,
            ptype=packet.ptype,
            payload=complete,
            delivered_at=now,
        )
        self._trace.emit(
            now,
            "mesh.deliver",
            node=self.address,
            src=packet.src,
            msg_id=fragment.msg_id,
            ptype=int(packet.ptype),
            size=len(complete),
        )
        for hook in self.on_deliver:
            hook(message)

    # -- monitoring support ---------------------------------------------------------

    def _frame_transmitted(self, packet: Packet, airtime: float, attempt: int) -> None:
        for hook in self.on_packet_out:
            hook(self._sim.now, packet, airtime, attempt)

    def status(self) -> Dict[str, float]:
        """Snapshot of node health, the source for status telemetry records."""
        now = self._sim.now
        return {
            "uptime_s": self.uptime_s,
            "queue_depth": float(self.mac.queue_depth),
            "route_count": float(len(self.routes)),
            "neighbor_count": float(len(self.neighbors)),
            "battery_v": self.battery_volts(now),
            "tx_frames": float(self.mac.stats.tx_frames),
            "tx_airtime_s": self.mac.stats.tx_airtime_s,
            "retransmissions": float(self.mac.stats.retransmissions),
            "drops": float(self.mac.stats.total_drops + sum(self.counters.drops.values())),
            "duty_utilisation": self.mac.duty.utilisation(self.params.frequency_hz, now),
            "originated": float(self.counters.originated),
            "delivered": float(self.counters.delivered),
            "forwarded": float(self.counters.forwarded),
        }
