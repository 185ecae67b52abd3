"""Shared-medium channel arbiter.

The :class:`Channel` is the broadcast medium connecting all simulated radios.
On each transmission it

1. asks its :class:`~repro.phy.reachability.ReachabilityIndex` which nodes
   could plausibly detect the frame (everyone else is provably below the
   CAD-detection threshold and is skipped),
2. stores which nodes cannot hear the preamble when it starts,
3. schedules a delivery evaluation at frame end, where the collision model
   first decides once which overlapping transmissions threaten the frame
   at all, and then — per receiver — whether the frame's power there
   captures those threats,
4. emits ground-truth trace events: ``phy.tx`` per frame, ``phy.rx``,
   ``phy.collision`` or ``phy.rx_missed`` per receiver above sensitivity,
   and one ``phy.below_sensitivity`` per frame whose ``count`` is the
   number of attached non-senders the frame did not reach.

Nodes attach with an ``on_receive`` callback (invoked with a
:class:`Reception`) and their :class:`~repro.phy.radio.Radio`, which
reports every state transition back to the channel; the channel keeps
the set of nodes that are not attached with a radio in RX, so a frame
start copies that small set instead of asking every radio.  Half-duplex
is enforced: a node whose own transmission overlaps an incoming frame
never receives it — the senders of the frames overlapping it, found once
per frame, are exactly the nodes that transmitted during it.

Hot-path structure (see ``docs/ARCHITECTURE.md``, "PHY hot path"): the
reachability index keeps one link table per (sender, params) — the
candidate receivers in node order, each with its static RSSI — and brings
it up to date with every topology move and injected attenuation change
before it serves it, so a frame's end walks the table as of that instant
and adds only the per-frame fading term to each entry; carrier sense
reads the same tables.  Overlap queries
go through a slot map keyed by coarse time buckets instead of scanning
every active/recent frame; recently finished frames are pruned
incrementally from a deque.  Everything that does not depend on the
receiver — the overlapping frames, which of them are collision threats,
who was transmitting — is computed once per frame, and RSSI at a receiver
only for the threats, straight from the shared
:class:`~repro.phy.reachability.LinkBudgetCache`.  Because the link
model's randomness is counter-based and bounded (:mod:`repro.phy.link`),
the produced trace stream is identical whichever reachability index is
plugged in — the brute-force index remains available as the reference
oracle.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, List, NamedTuple, Optional, Set

from repro.errors import ConfigurationError
from repro.phy.airtime import cached_time_on_air
from repro.phy.collision import CollisionModel
from repro.phy.link import sensitivity_dbm
from repro.phy.params import LoRaParams
from repro.phy.radio import Radio, RadioState
from repro.phy.reachability import (
    GridReachabilityIndex,
    LinkBudgetCache,
    PropagationModel,
    ReachabilityIndex,
)
from repro.sim.engine import Simulator
from repro.sim.topology import Topology
from repro.sim.trace import TraceLog

_RX = RadioState.RX
#: Shared by every frame that starts while every node can listen.
_NOBODY: FrozenSet[int] = frozenset()
#: Width of the coarse time buckets of the overlap slot map.  Only a
#: performance choice: overlap results are the same for any positive width.
_SLOT_WIDTH_S = 1.0


class Transmission:
    """One frame in flight on the medium.

    Identity equality — two distinct frames are never "the same frame".
    A frame holds no RSSI: receivers are judged against the sender's link
    table as of the frame's end (see :class:`Channel`).
    """

    __slots__ = (
        "tx_id", "sender", "params", "payload", "payload_bytes", "start", "end",
        "deaf_at_start",
    )

    def __init__(
        self,
        tx_id: int,
        sender: int,
        params: LoRaParams,
        payload: Any,
        payload_bytes: int,
        start: float,
        end: float,
        deaf_at_start: FrozenSet[int],
    ) -> None:
        self.tx_id = tx_id
        self.sender = sender
        self.params = params
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.start = start
        self.end = end
        #: Topology nodes that could not hear the preamble at start: not
        #: attached, or attached with a radio outside RX (a MAC puts its
        #: own radio in TX before it sends).  It covers every topology
        #: node, not just the sender's candidate set: reception is decided
        #: against frame-*end* geometry, so under mid-flight mobility a
        #: node outside the start-time candidate set can still become a
        #: receiver — its listening state must have been recorded for both
        #: index flavours to agree.
        self.deaf_at_start = deaf_at_start


class Reception(NamedTuple):
    """Delivered frame, as seen by the receiving radio driver."""

    sender: int
    receiver: int
    payload: Any
    payload_bytes: int
    rssi_dbm: float
    snr_db: float
    params: LoRaParams
    start: float
    end: float


class Channel:
    """Broadcast LoRa medium over a fixed topology."""

    #: How far below sensitivity a frame can be and still raise the CAD
    #: busy indication (preamble detection is a little more sensitive than
    #: full demodulation).
    CAD_MARGIN_DB = 3.0

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        link_model: PropagationModel,
        collision_model: Optional[CollisionModel] = None,
        trace: Optional[TraceLog] = None,
        *,
        reachability: Optional[ReachabilityIndex] = None,
    ) -> None:
        self._sim = sim
        self._topology = topology
        self._link = link_model
        self._collisions = collision_model or CollisionModel()
        # Explicit None check: an empty TraceLog is falsy (it has __len__).
        self._trace = trace if trace is not None else TraceLog()
        self._budget = LinkBudgetCache(topology, link_model)
        self._reachability: ReachabilityIndex = (
            reachability if reachability is not None else GridReachabilityIndex()
        )
        self._reachability.bind(topology, link_model, self._budget, self.CAD_MARGIN_DB)
        self._tx_ids = itertools.count(1)
        #: Frames on air, in start order.
        self._active: List[Transmission] = []
        #: Finished frames kept as interferers, in completion (= end) order.
        self._recent: Deque[Transmission] = deque()
        #: Coarse time bucket -> frames whose air interval touches it.
        self._slots: Dict[int, List[Transmission]] = {}
        self._on_receive: Dict[int, Callable[[Reception], None]] = {}
        self._radios: Dict[int, Radio] = {}
        #: Topology nodes not attached with a radio in RX, kept current by
        #: attach/detach and the attached radios' transitions.
        self._deaf: Set[int] = set(topology.positions)

    @property
    def trace(self) -> TraceLog:
        return self._trace

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def link_model(self) -> PropagationModel:
        return self._link

    @property
    def reachability(self) -> ReachabilityIndex:
        """The plugged-in candidate-receiver index (stats live here)."""
        return self._reachability

    @property
    def budget(self) -> LinkBudgetCache:
        """The shared static link-budget cache."""
        return self._budget

    def attach(
        self,
        address: int,
        on_receive: Callable[[Reception], None],
        radio: Radio,
    ) -> None:
        """Register a node's radio with the medium.

        The channel becomes the radio's observer: from now on the node
        can hear a preamble exactly while ``radio`` is in RX.

        Raises:
            ConfigurationError: if the address is not in the topology or is
                already attached, or the radio already has an observer.
        """
        if address not in self._topology.positions:
            raise ConfigurationError(f"node {address} is not in the topology")
        if address in self._on_receive:
            raise ConfigurationError(f"node {address} already attached")
        if radio.observer is not None:
            raise ConfigurationError(f"node {address}: radio is already observed")
        deaf = self._deaf

        def observe(state: RadioState) -> None:
            if state is _RX:
                deaf.discard(address)
            else:
                deaf.add(address)

        self._on_receive[address] = on_receive
        self._radios[address] = radio
        radio.observer = observe
        observe(radio.state)

    def detach(self, address: int) -> None:
        """Remove a node (e.g. simulated hardware failure).

        The node's radio stops reporting to the channel, so transitions a
        stopped MAC makes later cannot make the address look listening.
        """
        self._on_receive.pop(address, None)
        radio = self._radios.pop(address, None)
        if radio is not None:
            radio.observer = None
            self._deaf.add(address)

    def is_busy(self, address: int) -> bool:
        """Carrier/CAD sense at ``address``: any detectable frame on air?

        Used by the CSMA MAC.  Detection uses sensitivity minus a small CAD
        margin; frames below that are invisible, which reproduces the hidden
        terminal problem.  Nodes outside a frame's candidate set are below
        that threshold by construction and are skipped without computing
        RSSI at all.
        """
        link_table = self._reachability.link_table
        for tx in self._active:
            if tx.sender == address:
                return True
            static_rssi = link_table(tx.sender, tx.params).get(address)
            if static_rssi is None:
                continue
            rssi = static_rssi + self._link.fading_db(tx.sender, address, tx.tx_id)
            if rssi >= sensitivity_dbm(tx.params) - self.CAD_MARGIN_DB:
                return True
        return False

    def airtime(self, params: LoRaParams, payload_bytes: int) -> float:
        """Frame duration for these settings (convenience passthrough)."""
        return cached_time_on_air(params, payload_bytes)

    def transmit(
        self,
        sender: int,
        params: LoRaParams,
        payload: Any,
        payload_bytes: int,
    ) -> Transmission:
        """Put a frame on the air starting now.

        The caller (the MAC) is responsible for half-duplex bookkeeping on
        its own radio and for duty-cycle accounting; the channel enforces
        propagation physics only.

        Returns:
            The in-flight :class:`Transmission` (mainly for tests).
        """
        now = self._sim.now
        end = now + cached_time_on_air(params, payload_bytes)
        # Listening state is time-dependent and cannot be reconstructed
        # later, so it is stored for *every* topology node — not just the
        # current candidate set, which a mid-flight move can grow.  Only
        # the nodes that cannot listen are stored: usually a handful.
        deaf = self._deaf
        tx = Transmission(
            tx_id=next(self._tx_ids),
            sender=sender,
            params=params,
            payload=payload,
            payload_bytes=payload_bytes,
            start=now,
            end=end,
            deaf_at_start=frozenset(deaf) if deaf else _NOBODY,
        )
        self._active.append(tx)
        self._register_slots(tx)
        # Thread the network-wide packet identity into the PHY event stream
        # so the flight recorder can stitch phy.tx/rx/collision (keyed by
        # tx_id) back to the mesh packet that was on the air.
        identity: Dict[str, Any] = {}
        src = getattr(payload, "src", None)
        if src is not None:
            identity = {
                "src": src,
                "packet_id": getattr(payload, "packet_id", None),
                "ptype": int(getattr(payload, "ptype", 0)),
                "dst": getattr(payload, "dst", None),
                "next_hop": getattr(payload, "next_hop", None),
            }
        self._trace.emit(
            now,
            "phy.tx",
            node=sender,
            tx_id=tx.tx_id,
            payload_bytes=payload_bytes,
            airtime=end - now,
            frequency_hz=params.frequency_hz,
            sf=params.spreading_factor,
            **identity,
        )
        self._sim.call_at(end, lambda: self._complete(tx), priority=-1)
        return tx

    # -- RSSI ------------------------------------------------------------------

    def _rssi(self, tx: Transmission, node: int) -> float:
        """RSSI of ``tx`` at ``node`` under current geometry: cached static
        budget plus the derived per-frame fading term (keyed by ``tx_id``,
        so the value is independent of when or whether any other receiver
        was evaluated).  Bit for bit the sender's link-table entry plus
        fading, and defined for nodes outside the table too: an
        interferer's sender rarely has the receiver among its candidates."""
        return (
            tx.params.tx_power_dbm
            - self._budget.loss_db(tx.sender, node)
            + self._link.fading_db(tx.sender, node, tx.tx_id)
        )

    # -- overlap bookkeeping -------------------------------------------------

    @staticmethod
    def _slot_range(tx: Transmission) -> range:
        return range(int(tx.start // _SLOT_WIDTH_S), int(tx.end // _SLOT_WIDTH_S) + 1)

    def _register_slots(self, tx: Transmission) -> None:
        for slot in self._slot_range(tx):
            self._slots.setdefault(slot, []).append(tx)

    def _unregister_slots(self, tx: Transmission) -> None:
        for slot in self._slot_range(tx):
            bucket = self._slots.get(slot)
            if bucket is None:
                continue
            bucket.remove(tx)
            if not bucket:
                del self._slots[slot]

    def _overlapping(self, tx: Transmission) -> List[Transmission]:
        """All other transmissions whose air interval overlaps ``tx``,
        in ascending ``tx_id`` (= start) order."""
        seen = {tx.tx_id}
        out: List[Transmission] = []
        for slot in self._slot_range(tx):
            for other in self._slots.get(slot, ()):
                if other.tx_id in seen:
                    continue
                if tx.start < other.end and other.start < tx.end:
                    seen.add(other.tx_id)
                    out.append(other)
        out.sort(key=lambda other: other.tx_id)
        return out

    # -- delivery evaluation --------------------------------------------------

    def _complete(self, tx: Transmission) -> None:
        """Frame end: decide reception at every relevant node and clean up."""
        # A finished frame can interfere only with frames whose air
        # interval it overlaps.  Every frame still on air, or sent later,
        # starts at or after the oldest active start (this frame's at the
        # latest), so a finished frame that ended before it overlaps no
        # current or future frame.  The deque is in completion (= end)
        # order, so those frames sit at its left end.
        oldest_start = self._active[0].start
        self._active.remove(tx)
        self._recent.append(tx)
        while self._recent[0].end < oldest_start:
            self._unregister_slots(self._recent.popleft())

        # Receiver-independent, so once per frame: the frames on air during
        # this one, which of them can corrupt it anywhere, and who sent
        # them — a node that transmitted during the frame cannot have
        # received it (half-duplex).
        overlapping = self._overlapping(tx)
        cross_sf, same_sf = self._collisions.threats(tx.params, tx.start, tx.end, overlapping)
        threatened = bool(cross_sf or same_sf)
        transmitting = {other.sender for other in overlapping}
        # Attached nodes outside the candidate set are below the detection
        # threshold by construction: they count as below sensitivity
        # without an RSSI evaluation.
        on_receive = self._on_receive
        sender, tx_id = tx.sender, tx.tx_id
        below_count = len(on_receive) - (1 if sender in on_receive else 0)
        fading_db = self._link.fading_db
        # The sender's link table as of now, so frame-end geometry.
        for node, static_rssi in self._reachability.link_table(sender, tx.params).items():
            handler = on_receive.get(node)
            if handler is None:
                continue
            rssi = static_rssi + fading_db(sender, node, tx_id)
            if not self._link.is_receivable(rssi, tx.params):
                continue
            below_count -= 1
            if node in tx.deaf_at_start or node in transmitting:
                self._trace.emit(self._sim.now, "phy.rx_missed", node=node, tx_id=tx_id)
                continue
            # Every threat counts regardless of its sender's candidate set —
            # its RSSI here is computed on demand.  This node sent none of
            # the overlapping frames (half-duplex above), so each of them is
            # an interferer here and counts in ``n_interferers``.
            if threatened and not self._collisions.captures(
                rssi,
                [self._rssi(other, node) for other in cross_sf],
                [self._rssi(other, node) for other in same_sf],
            ):
                self._trace.emit(
                    self._sim.now,
                    "phy.collision",
                    node=node,
                    tx_id=tx_id,
                    n_interferers=len(overlapping),
                )
                continue
            snr = self._link.snr_db(rssi, tx.params.bandwidth_hz)
            self._trace.emit(self._sim.now, "phy.rx", node=node, tx_id=tx_id, rssi=rssi, snr=snr)
            handler(
                Reception(
                    sender, node, tx.payload, tx.payload_bytes, rssi, snr,
                    tx.params, tx.start, tx.end,
                )
            )
        if below_count:
            self._trace.emit(
                self._sim.now, "phy.below_sensitivity", tx_id=tx_id, count=below_count
            )
