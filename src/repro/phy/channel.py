"""Shared-medium channel arbiter.

The :class:`Channel` is the broadcast medium connecting all simulated radios.
On each transmission it

1. asks its :class:`~repro.phy.reachability.ReachabilityIndex` which nodes
   could plausibly detect the frame (everyone else is provably below the
   CAD-detection threshold and is skipped),
2. stores which nodes cannot hear the preamble when it starts,
3. schedules a delivery evaluation at frame end, where the collision model
   decides — per receiver — whether the frame survived all overlapping
   transmissions,
4. emits ground-truth trace events (``phy.tx``, ``phy.rx``, ``phy.collision``,
   ``phy.below_sensitivity``, ``phy.rx_missed``).

Nodes attach with an ``on_receive`` callback (invoked with a
:class:`Reception`) and their :class:`~repro.phy.radio.Radio`, which
reports every state transition back to the channel; the channel keeps
the set of nodes that are not attached with a radio in RX, so a frame
start copies that small set instead of asking every radio.  Half-duplex
is enforced: a node whose own transmission overlaps an incoming frame
never receives it.

Hot-path structure (see ``docs/ARCHITECTURE.md``, "PHY hot path"): RSSI is
computed lazily per (frame, receiver) on first use, backed by the shared
:class:`~repro.phy.reachability.LinkBudgetCache`, and the memo is guarded
by a geometry epoch (bumped on every topology move and injected
attenuation change) so a cached value never outlives the geometry it was
computed under; overlap queries go through a slot map keyed by coarse
time buckets instead of scanning every active/recent frame; recently
finished frames are pruned incrementally from a deque.  Because the link
model's randomness is counter-based and bounded (:mod:`repro.phy.link`),
the produced trace stream is identical whichever reachability index is
plugged in — the brute-force index remains available as the reference
oracle.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, FrozenSet, List, Optional, Set

from repro.errors import ConfigurationError
from repro.phy.airtime import cached_time_on_air
from repro.phy.collision import CollisionModel, FrameOnAir
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

#: Valid values for :attr:`ChannelConfig.sub_sensitivity_trace`.
SUB_SENSITIVITY_MODES = ("auto", "per_node", "aggregate")

_RX = RadioState.RX
#: Shared by every frame that starts while every node can listen.
_NOBODY: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class ChannelConfig:
    """Tuning knobs for the channel's tracing and bookkeeping.

    Attributes:
        sub_sensitivity_trace: how ``phy.below_sensitivity`` is emitted.
            ``"per_node"`` keeps the classic one-event-per-non-receiver
            stream; ``"aggregate"`` emits a single per-frame event carrying
            ``count`` (``node=None``), which keeps trace volume O(delta)
            at fleet scale; ``"auto"`` picks per-node for meshes up to
            :attr:`per_node_trace_max_nodes` nodes and aggregate above.
            Delivery verdicts (``phy.rx``/``phy.collision``/
            ``phy.rx_missed``) are identical in every mode.
        per_node_trace_max_nodes: mesh size threshold used by ``"auto"``.
        recent_horizon_s: how long finished frames are retained as
            potential interferers for frames that overlapped them.
        slot_width_s: width of the coarse time buckets used by the overlap
            slot map; purely a performance knob (results are identical for
            any positive value).
    """

    sub_sensitivity_trace: str = "auto"
    per_node_trace_max_nodes: int = 64
    recent_horizon_s: float = 30.0
    slot_width_s: float = 1.0

    def __post_init__(self) -> None:
        if self.sub_sensitivity_trace not in SUB_SENSITIVITY_MODES:
            raise ConfigurationError(
                f"sub_sensitivity_trace must be one of {SUB_SENSITIVITY_MODES}, "
                f"got {self.sub_sensitivity_trace!r}"
            )
        if self.per_node_trace_max_nodes < 0:
            raise ConfigurationError(
                f"per_node_trace_max_nodes must be >= 0, got {self.per_node_trace_max_nodes}"
            )
        if self.recent_horizon_s <= 0:
            raise ConfigurationError(
                f"recent_horizon_s must be > 0, got {self.recent_horizon_s}"
            )
        if self.slot_width_s <= 0:
            raise ConfigurationError(
                f"slot_width_s must be > 0, got {self.slot_width_s}"
            )


@dataclass(eq=False)
class Transmission:
    """One frame in flight on the medium.

    ``rssi_at`` is populated lazily: a receiver's RSSI is computed on
    first use (delivery evaluation, interference accounting) rather than
    for every node up front.  Identity equality (``eq=False``) — two
    distinct frames are never "the same frame".
    """

    tx_id: int
    sender: int
    params: LoRaParams
    payload: Any
    payload_bytes: int
    start: float
    end: float
    #: RSSI of this frame per node, filled in on demand.
    rssi_at: Dict[int, float] = field(default_factory=dict)
    #: Channel geometry epoch each ``rssi_at`` entry was computed under.
    #: Which (frame, node) pairs get memoised — and when — depends on the
    #: plugged-in reachability index and trace mode, so an entry that
    #: survived a topology/attenuation change would freeze pre-change
    #: geometry in one index flavour but not the other; the channel
    #: recomputes on epoch mismatch to keep the flavours event-identical.
    rssi_epoch: Dict[int, int] = field(default_factory=dict)
    #: Topology nodes that could not hear the preamble at start: not
    #: attached, or attached with a radio outside RX (a MAC puts its own
    #: radio in TX before it sends).  It covers every topology node, not
    #: just the sender's candidate set: reception is decided against
    #: frame-*end* geometry, so under mid-flight mobility a node outside
    #: the start-time candidate set can still become a receiver — its
    #: listening state must have been recorded for both index flavours
    #: to agree.
    deaf_at_start: FrozenSet[int] = _NOBODY

    def as_frame(self, receiver: int) -> FrameOnAir:
        """Collision-model view of this transmission at ``receiver``."""
        return FrameOnAir(
            params=self.params,
            rssi_dbm=self.rssi_at[receiver],
            start=self.start,
            end=self.end,
        )


@dataclass(frozen=True)
class Reception:
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
        config: Optional[ChannelConfig] = None,
    ) -> None:
        self._sim = sim
        self._topology = topology
        self._link = link_model
        self._collisions = collision_model or CollisionModel()
        # Explicit None check: an empty TraceLog is falsy (it has __len__).
        self._trace = trace if trace is not None else TraceLog()
        self._config = config if config is not None else ChannelConfig()
        self._budget = LinkBudgetCache(topology, link_model)
        self._reachability: ReachabilityIndex = (
            reachability if reachability is not None else GridReachabilityIndex()
        )
        self._reachability.bind(topology, link_model, self._budget, self.CAD_MARGIN_DB)
        #: Bumped on every position move / injected-attenuation change;
        #: guards the per-frame RSSI memo (see :class:`Transmission`).
        self._geometry_epoch = 0
        topology.subscribe(self._on_geometry_change)
        link_model.subscribe_changes(self._on_attenuation_change)
        mode = self._config.sub_sensitivity_trace
        if mode == "auto":
            self._per_node_trace = (
                len(topology.positions) <= self._config.per_node_trace_max_nodes
            )
        else:
            self._per_node_trace = mode == "per_node"
        self._tx_ids = itertools.count(1)
        self._active: List[Transmission] = []
        #: Finished frames kept as interferers, in completion (= end) order.
        self._recent: Deque[Transmission] = deque()
        #: Coarse time bucket -> frames whose air interval touches it.
        self._slots: Dict[int, List[Transmission]] = {}
        #: Per-sender frames within the horizon (half-duplex lookups).
        self._by_sender: Dict[int, Deque[Transmission]] = {}
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

    @property
    def config(self) -> ChannelConfig:
        return self._config

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
        for tx in self._active:
            if tx.sender == address:
                return True
            if address not in self._reachability.candidates(tx.sender, tx.params):
                continue
            if tx.rssi_epoch.get(address) == self._geometry_epoch:
                rssi = tx.rssi_at[address]
            else:
                # Peek without caching: whether this path runs at all can
                # depend on the index flavour, and filling the memo here
                # would make its fill pattern flavour-dependent.
                rssi = self._compute_rssi(tx, address)
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
        self._by_sender.setdefault(sender, deque()).append(tx)
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

    # -- lazy RSSI ----------------------------------------------------------

    def _compute_rssi(self, tx: Transmission, node: int) -> float:
        """RSSI of ``tx`` at ``node``: cached static budget plus the
        derived per-frame fading term (keyed by ``tx_id``, so the value is
        independent of when or whether any other receiver was evaluated)."""
        return (
            tx.params.tx_power_dbm
            - self._budget.loss_db(tx.sender, node)
            + self._link.fading_db(tx.sender, node, tx.tx_id)
        )

    def _rssi(self, tx: Transmission, node: int) -> float:
        """Memoised RSSI of ``tx`` at ``node`` under *current* geometry.

        Entries computed under an older geometry epoch are recomputed, so
        the value returned is always a pure function of (frame, node,
        current geometry) — independent of which index flavour happened
        to fill the memo earlier, or when.
        """
        epoch = self._geometry_epoch
        if tx.rssi_epoch.get(node) == epoch:
            return tx.rssi_at[node]
        rssi = self._compute_rssi(tx, node)
        tx.rssi_at[node] = rssi
        tx.rssi_epoch[node] = epoch
        return rssi

    def _on_geometry_change(self, node: int) -> None:
        self._geometry_epoch += 1

    def _on_attenuation_change(self, a: int, b: int) -> None:
        self._geometry_epoch += 1

    # -- overlap bookkeeping -------------------------------------------------

    def _slot_range(self, tx: Transmission) -> range:
        width = self._config.slot_width_s
        return range(int(tx.start // width), int(tx.end // width) + 1)

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

    def _own_tx_overlaps(self, node: int, tx: Transmission) -> bool:
        """Whether ``node`` transmitted at any point during ``tx``
        (half-duplex), via the per-sender deque instead of a global scan."""
        frames = self._by_sender.get(node)
        if not frames:
            return False
        horizon = self._sim.now - self._config.recent_horizon_s
        while frames and frames[0].end < horizon:
            frames.popleft()
        return any(
            other.tx_id != tx.tx_id and tx.start < other.end and other.start < tx.end
            for other in frames
        )

    # -- delivery evaluation --------------------------------------------------

    def _complete(self, tx: Transmission) -> None:
        """Frame end: decide reception at every relevant node and clean up."""
        self._active.remove(tx)
        self._recent.append(tx)
        # Keep recently finished frames long enough to serve as interferers
        # for anything that overlapped them; prune incrementally (the deque
        # is in completion order, so expired frames sit at the left end).
        horizon = self._sim.now - self._config.recent_horizon_s
        while self._recent and self._recent[0].end < horizon:
            self._unregister_slots(self._recent.popleft())
        # Prune the sender's half-duplex deque here too: _own_tx_overlaps
        # only prunes when the node is evaluated as a receiver, and a
        # node that transmits but is rarely eligible to receive (out of
        # everyone's range, or culled in aggregate mode) would otherwise
        # accumulate every frame it ever sent.
        sender_frames = self._by_sender.get(tx.sender)
        if sender_frames:
            while sender_frames and sender_frames[0].end < horizon:
                sender_frames.popleft()

        overlapping = self._overlapping(tx)
        candidates = self._reachability.candidates(tx.sender, tx.params)
        per_node = self._per_node_trace
        if per_node:
            nodes = self._topology.nodes()
        else:
            nodes = sorted(candidates)
        below_count = 0
        n_evaluated = 0
        for node in nodes:
            if node == tx.sender:
                continue
            handler = self._on_receive.get(node)
            if handler is None:
                continue
            n_evaluated += 1
            rssi = self._rssi(tx, node)
            if not self._link.is_receivable(rssi, tx.params):
                if per_node:
                    self._trace.emit(
                        self._sim.now, "phy.below_sensitivity", node=node, tx_id=tx.tx_id, rssi=rssi
                    )
                else:
                    below_count += 1
                continue
            if node in tx.deaf_at_start or self._own_tx_overlaps(node, tx):
                self._trace.emit(self._sim.now, "phy.rx_missed", node=node, tx_id=tx.tx_id)
                continue
            # Frames the node itself sent do not appear at the antenna as
            # interference (it was not listening then anyway).  Every
            # overlapping frame counts as an interferer regardless of its
            # sender's candidate set — its RSSI here is computed on demand.
            interferers = []
            for other in overlapping:
                if other.sender == node:
                    continue
                self._rssi(other, node)
                interferers.append(other.as_frame(node))
            if not self._collisions.survives(tx.as_frame(node), interferers):
                self._trace.emit(
                    self._sim.now,
                    "phy.collision",
                    node=node,
                    tx_id=tx.tx_id,
                    n_interferers=len(interferers),
                )
                continue
            snr = self._link.snr_db(rssi, tx.params.bandwidth_hz)
            self._trace.emit(
                self._sim.now, "phy.rx", node=node, tx_id=tx.tx_id, rssi=rssi, snr=snr
            )
            handler(
                Reception(
                    sender=tx.sender,
                    receiver=node,
                    payload=tx.payload,
                    payload_bytes=tx.payload_bytes,
                    rssi_dbm=rssi,
                    snr_db=snr,
                    params=tx.params,
                    start=tx.start,
                    end=tx.end,
                )
            )
        if not per_node:
            # Attached nodes outside the candidate set are below the
            # detection threshold by construction; fold them into the
            # aggregate count so ground-truth totals match per-node mode.
            n_eligible = len(self._on_receive) - (1 if tx.sender in self._on_receive else 0)
            below_count += n_eligible - n_evaluated
            if below_count:
                self._trace.emit(
                    self._sim.now, "phy.below_sensitivity", tx_id=tx.tx_id, count=below_count
                )
