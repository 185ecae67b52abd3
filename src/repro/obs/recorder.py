"""Packet flight recorder: causal lifecycle reconstruction from the trace.

The :class:`FlightRecorder` subscribes to the simulation's ground-truth
:class:`~repro.sim.trace.TraceLog` and stitches the flat event stream back
into **per-message lifecycles**: origin → fragment transmissions → hop
custody transfers → delivery, or a terminal verdict explaining *why* the
message never arrived.

Identity model (mirrors the wire):

* a message is ``(origin, msg_id)`` — msg_ids are per-origin sequence
  numbers carried in the fragment header;
* a fragment frame is ``(src, packet_id)`` — ``packet_id`` is assigned at
  the origin and **preserved across hops**, so every retransmission and
  relay of the same fragment maps back to one :class:`FragmentTrace`;
* a physical transmission is ``tx_id`` — the channel stamps the packet
  identity onto ``phy.tx``, and the recorder carries it over to the
  ``phy.rx`` / ``phy.collision`` / ``phy.rx_missed`` events and the
  per-frame ``phy.below_sensitivity`` count that share the tx_id.

Terminal verdicts (the drop-reason taxonomy):

``delivered``, ``collision``, ``no_route``, ``retry_exhausted``,
``duty_cycle``, ``ttl``, ``node_down``, ``queue_full`` and ``in_flight``
(the message was still queued somewhere when the simulation ended — a
real state, not an unknown).  Verdict inference prefers the *proximate*
cause: the latest piece of evidence before the message went silent.

The recorder is pure bookkeeping on trace events — it reads no clocks and
owns no RNG, so attaching it never perturbs the simulation.  Detached, it
costs nothing (zero-overhead contract benchmarked by
``benchmarks/bench_o1_trace_overhead.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.mesh.addressing import BROADCAST
from repro.sim.trace import TraceEvent, TraceLog, TraceSubscription

#: Terminal verdicts, in display order.
VERDICT_DELIVERED = "delivered"
VERDICT_COLLISION = "collision"
VERDICT_NO_ROUTE = "no_route"
VERDICT_RETRY_EXHAUSTED = "retry_exhausted"
VERDICT_DUTY_CYCLE = "duty_cycle"
VERDICT_TTL = "ttl"
VERDICT_NODE_DOWN = "node_down"
VERDICT_QUEUE_FULL = "queue_full"
VERDICT_IN_FLIGHT = "in_flight"

ALL_VERDICTS: Tuple[str, ...] = (
    VERDICT_DELIVERED,
    VERDICT_COLLISION,
    VERDICT_NO_ROUTE,
    VERDICT_RETRY_EXHAUSTED,
    VERDICT_DUTY_CYCLE,
    VERDICT_TTL,
    VERDICT_NODE_DOWN,
    VERDICT_QUEUE_FULL,
    VERDICT_IN_FLIGHT,
)

#: Raw MAC/mesh drop reasons → taxonomy verdicts.  ``ack_timeout`` maps to
#: retry_exhausted by default but is *refined* by :meth:`FlightRecorder.verdict`
#: (collision at the next hop, or a dead next hop, are more proximate causes).
_REASON_MAP: Dict[str, str] = {
    "queue_full": VERDICT_QUEUE_FULL,
    "csma_exhausted": VERDICT_RETRY_EXHAUSTED,
    "ack_timeout": VERDICT_RETRY_EXHAUSTED,
    "duty_cycle": VERDICT_DUTY_CYCLE,
    "stopped": VERDICT_NODE_DOWN,
    "no_route": VERDICT_NO_ROUTE,
    "no_route_forward": VERDICT_NO_ROUTE,
    "ttl": VERDICT_TTL,
    "ttl_exceeded": VERDICT_TTL,
}


@dataclass(frozen=True)
class TimelineEntry:
    """One step in a message's reconstructed causal timeline."""

    time: float
    node: Optional[int]
    what: str
    detail: str = ""

    def render(self) -> str:
        node = f"n{self.node}" if self.node is not None else "-"
        line = f"t={self.time:10.3f}  {node:>5}  {self.what}"
        if self.detail:
            line += f"  {self.detail}"
        return line


@dataclass
class _TxAttempt:
    """One physical transmission of a fragment."""

    tx_id: int
    time: float
    sender: int
    next_hop: Optional[int]
    #: outcomes keyed by a node above sensitivity: "rx" | "collision" | "rx_missed"
    outcomes: Dict[int, str] = field(default_factory=dict)
    #: attached nodes the frame did not reach, from the frame's
    #: ``phy.below_sensitivity`` event (``count``).
    below_count: int = 0


@dataclass
class FragmentTrace:
    """Lifecycle of one fragment frame, across every hop and retry."""

    src: int
    packet_id: int
    msg_id: Optional[int] = None
    seg_index: int = 0
    seg_total: int = 1
    dst: Optional[int] = None
    origin_time: Optional[float] = None
    attempts: List[_TxAttempt] = field(default_factory=list)
    #: (time, node, raw_reason, next_hop) for every mac/mesh drop of this frame.
    drops: List[Tuple[float, int, str, Optional[int]]] = field(default_factory=list)
    #: custody chain: (time, node) — origin, then each forwarding relay.
    custody: List[Tuple[float, int]] = field(default_factory=list)
    #: (time, node) for each mesh.frag_deliver at a destination.
    delivers: List[Tuple[float, int]] = field(default_factory=list)

    def last_attempt(self) -> Optional[_TxAttempt]:
        return self.attempts[-1] if self.attempts else None


@dataclass
class MessageTrace:
    """Lifecycle of one application message."""

    origin: int
    msg_id: int
    dst: int
    ptype: int = 0
    size: int = 0
    n_fragments: int = 1
    sent_at: float = 0.0
    #: True when the origin refused the send outright (no route).
    refused: bool = False
    refused_reason: Optional[str] = None
    delivered_at: Optional[float] = None
    deliver_node: Optional[int] = None
    fragment_ids: List[int] = field(default_factory=list)
    #: end-to-end retry links (ReliableMessenger): msg_id of the attempt
    #: this one replaced, and the one that replaced it.
    retry_of: Optional[int] = None
    retried_by: Optional[int] = None
    e2e_acked: bool = False
    e2e_gave_up: bool = False

    @property
    def trace_id(self) -> str:
        return f"{self.origin}:{self.msg_id}"

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None


@dataclass
class LinkStats:
    """Unicast frame accounting for one directed link."""

    tx: int = 0
    rx: int = 0
    collisions: int = 0

    @property
    def loss_rate(self) -> float:
        return 1.0 - (self.rx / self.tx) if self.tx else 0.0


class FlightRecorder:
    """Reconstructs packet lifecycles from the ground-truth trace stream.

    Attach to a live :class:`TraceLog` (``recorder.attach(trace)``) or feed
    replayed events (``recorder.observe(event)`` /
    ``recorder.consume(events)``) — e.g. from an NDJSON capture.
    """

    def __init__(self) -> None:
        self._messages: Dict[Tuple[int, int], MessageTrace] = {}
        self._fragments: Dict[Tuple[int, int], FragmentTrace] = {}
        #: (src, packet_id) → (origin, msg_id) once frag_origin is seen.
        self._frag_to_msg: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: tx_id → the fragment (or None for non-fragment frames) + attempt.
        self._tx_attempt: Dict[int, _TxAttempt] = {}
        self._tx_fragment: Dict[int, Optional[Tuple[int, int]]] = {}
        self._links: Dict[Tuple[int, int], LinkStats] = {}
        self._forwards: Dict[int, int] = {}
        #: raw drop tallies (reason / node / link) across *all* frames.
        self._drops_by_reason: Dict[str, int] = {}
        self._drops_by_node: Dict[int, int] = {}
        self._drops_by_link: Dict[str, int] = {}
        #: node → list of (fail_time, recover_time_or_None)
        self._downtime: Dict[int, List[Tuple[float, Optional[float]]]] = {}
        self._subscription: Optional[TraceSubscription] = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, trace: TraceLog) -> TraceSubscription:
        """Subscribe to a live trace; returns the subscription handle."""
        self._subscription = trace.subscribe(self.observe)
        return self._subscription

    def detach(self) -> None:
        if self._subscription is not None:
            self._subscription.unsubscribe()
            self._subscription = None

    def consume(self, events: Iterable[TraceEvent]) -> int:
        """Feed a batch of replayed events; returns how many were consumed."""
        n = 0
        for event in events:
            self.observe(event)
            n += 1
        return n

    # -- event ingestion ------------------------------------------------------

    def observe(self, event: TraceEvent) -> None:
        """Trace listener: dispatch one ground-truth event."""
        kind = event.kind
        if kind.startswith("phy."):
            self._observe_phy(event)
        elif kind.startswith("mesh."):
            self._observe_mesh(event)
        elif kind == "mac.drop":
            self._observe_mac_drop(event)
        elif kind.startswith("e2e."):
            self._observe_e2e(event)
        elif kind == "node.fail":
            if event.node is not None:
                self._downtime.setdefault(event.node, []).append((event.time, None))
        elif kind == "node.recover":
            if event.node is not None:
                spans = self._downtime.get(event.node)
                if spans and spans[-1][1] is None:
                    spans[-1] = (spans[-1][0], event.time)

    def _observe_mesh(self, event: TraceEvent) -> None:
        kind, data, node = event.kind, event.data, event.node
        if kind == "mesh.origin" and node is not None:
            msg = MessageTrace(
                origin=node,
                msg_id=int(data["msg_id"]),
                dst=int(data.get("dst", BROADCAST)),
                ptype=int(data.get("ptype", 0)),
                size=int(data.get("size", 0)),
                n_fragments=int(data.get("n_fragments", 1)),
                sent_at=event.time,
            )
            self._messages[(msg.origin, msg.msg_id)] = msg
        elif kind == "mesh.origin_refused" and node is not None:
            msg = MessageTrace(
                origin=node,
                msg_id=int(data["msg_id"]),
                dst=int(data.get("dst", BROADCAST)),
                ptype=int(data.get("ptype", 0)),
                size=int(data.get("size", 0)),
                sent_at=event.time,
                refused=True,
                refused_reason=str(data.get("reason", "no_route")),
            )
            self._messages[(msg.origin, msg.msg_id)] = msg
        elif kind == "mesh.frag_origin" and node is not None and "msg_id" in data:
            packet_id = int(data["packet_id"])
            frag = FragmentTrace(
                src=node,
                packet_id=packet_id,
                msg_id=int(data["msg_id"]),
                seg_index=int(data.get("seg_index", 0)),
                seg_total=int(data.get("seg_total", 1)),
                dst=int(data.get("dst", BROADCAST)),
                origin_time=event.time,
            )
            frag.custody.append((event.time, node))
            self._fragments[(node, packet_id)] = frag
            self._frag_to_msg[(node, packet_id)] = (node, int(data["msg_id"]))
            msg_entry = self._messages.get((node, int(data["msg_id"])))
            if msg_entry is not None:
                msg_entry.fragment_ids.append(packet_id)
        elif kind == "mesh.forward" and node is not None:
            self._forwards[node] = self._forwards.get(node, 0) + 1
            frag = self._fragment_for(data)
            if frag is not None:
                frag.custody.append((event.time, node))
        elif kind == "mesh.frag_deliver" and node is not None:
            frag = self._fragment_for(data)
            if frag is not None:
                frag.delivers.append((event.time, node))
        elif kind == "mesh.deliver" and node is not None:
            src = data.get("src")
            msg_id = data.get("msg_id")
            if src is not None and msg_id is not None:
                msg_entry = self._messages.get((int(src), int(msg_id)))
                if msg_entry is not None and msg_entry.delivered_at is None:
                    msg_entry.delivered_at = event.time
                    msg_entry.deliver_node = node
        elif kind == "mesh.drop" and node is not None:
            reason = str(data.get("reason", "unknown"))
            self._count_drop(reason, node, None)
            frag = self._fragment_for(data)
            if frag is not None:
                frag.drops.append((event.time, node, reason, None))

    def _observe_mac_drop(self, event: TraceEvent) -> None:
        data, node = event.data, event.node
        if node is None:
            return
        reason = str(data.get("reason", "unknown"))
        next_hop = data.get("next_hop")
        self._count_drop(reason, node, next_hop)
        frag = self._fragment_for(data)
        if frag is not None:
            hop = int(next_hop) if next_hop is not None else None
            frag.drops.append((event.time, node, reason, hop))

    def _observe_phy(self, event: TraceEvent) -> None:
        kind, data, node = event.kind, event.data, event.node
        tx_id = data.get("tx_id")
        if tx_id is None:
            return
        tx_id = int(tx_id)
        if kind == "phy.tx" and node is not None:
            next_hop = data.get("next_hop")
            attempt = _TxAttempt(
                tx_id=tx_id,
                time=event.time,
                sender=node,
                next_hop=int(next_hop) if next_hop is not None else None,
            )
            self._tx_attempt[tx_id] = attempt
            frag_key: Optional[Tuple[int, int]] = None
            src, packet_id = data.get("src"), data.get("packet_id")
            if src is not None and packet_id is not None:
                key = (int(src), int(packet_id))
                if key in self._fragments:
                    frag_key = key
                    self._fragments[key].attempts.append(attempt)
            self._tx_fragment[tx_id] = frag_key
            if attempt.next_hop is not None and attempt.next_hop != BROADCAST:
                self._link(node, attempt.next_hop).tx += 1
            return
        attempt = self._tx_attempt.get(tx_id)
        if attempt is None:
            return
        if kind == "phy.below_sensitivity":
            attempt.below_count += int(data["count"])
            return
        if node is None:
            return
        outcome = kind[len("phy."):]
        attempt.outcomes[node] = outcome
        if attempt.next_hop is not None and node == attempt.next_hop:
            link = self._link(attempt.sender, node)
            if kind == "phy.rx":
                link.rx += 1
            elif kind == "phy.collision":
                link.collisions += 1

    def _observe_e2e(self, event: TraceEvent) -> None:
        kind, data, node = event.kind, event.data, event.node
        if node is None:
            return
        if kind == "e2e.retry":
            new_id, prev_id = data.get("msg_id"), data.get("prev_msg_id")
            if new_id is not None and prev_id is not None:
                new_msg = self._messages.get((node, int(new_id)))
                prev_msg = self._messages.get((node, int(prev_id)))
                if new_msg is not None:
                    new_msg.retry_of = int(prev_id)
                if prev_msg is not None:
                    prev_msg.retried_by = int(new_id)
        elif kind == "e2e.ack":
            msg_id = data.get("msg_id")
            if msg_id is not None:
                msg_entry = self._messages.get((node, int(msg_id)))
                if msg_entry is not None:
                    msg_entry.e2e_acked = True
        elif kind == "e2e.give_up":
            for msg_id in data.get("msg_ids", []):
                msg_entry = self._messages.get((node, int(msg_id)))
                if msg_entry is not None:
                    msg_entry.e2e_gave_up = True

    # -- small helpers --------------------------------------------------------

    def _fragment_for(self, data: Dict[str, Any]) -> Optional[FragmentTrace]:
        src, packet_id = data.get("src"), data.get("packet_id")
        if src is None or packet_id is None:
            return None
        return self._fragments.get((int(src), int(packet_id)))

    def _link(self, a: int, b: int) -> LinkStats:
        stats = self._links.get((a, b))
        if stats is None:
            stats = self._links[(a, b)] = LinkStats()
        return stats

    def _count_drop(self, reason: str, node: int, next_hop: Optional[Any]) -> None:
        self._drops_by_reason[reason] = self._drops_by_reason.get(reason, 0) + 1
        self._drops_by_node[node] = self._drops_by_node.get(node, 0) + 1
        if next_hop is not None and int(next_hop) != BROADCAST:
            label = f"{node}->{int(next_hop)}"
            self._drops_by_link[label] = self._drops_by_link.get(label, 0) + 1

    def _node_down_at(self, node: int, time: float) -> bool:
        for start, end in self._downtime.get(node, []):
            if start <= time and (end is None or time < end):
                return True
        return False

    # -- verdicts -------------------------------------------------------------

    def verdict(self, msg: MessageTrace) -> str:
        """Terminal verdict for one message (proximate-cause inference)."""
        if msg.delivered:
            return VERDICT_DELIVERED
        if msg.refused:
            return _REASON_MAP.get(msg.refused_reason or "no_route", VERDICT_NO_ROUTE)
        evidence: List[Tuple[float, str]] = []
        for packet_id in msg.fragment_ids:
            frag = self._fragments.get((msg.origin, packet_id))
            if frag is None:
                continue
            for time, node, reason, next_hop in frag.drops:
                evidence.append((time, self._refine_drop(frag, time, reason, next_hop)))
            # A fragment that vanished in the air leaves no drop event:
            # the last transmission simply found no receiver.  Attribute it
            # to what the PHY saw.
            last = frag.last_attempt()
            if last is not None and not frag.drops and not frag.delivers:
                outcomes = set(last.outcomes.values())
                if "collision" in outcomes:
                    evidence.append((last.time, VERDICT_COLLISION))
                elif (outcomes or last.below_count) and outcomes <= {"rx_missed"}:
                    evidence.append((last.time, VERDICT_NO_ROUTE))
        if not evidence:
            return VERDICT_IN_FLIGHT
        evidence.sort(key=lambda pair: pair[0])
        return evidence[-1][1]

    def _refine_drop(
        self, frag: FragmentTrace, time: float, reason: str, next_hop: Optional[int]
    ) -> str:
        base = _REASON_MAP.get(reason, VERDICT_IN_FLIGHT)
        if reason != "ack_timeout":
            return base
        # Retries exhausted: distinguish *why* the ACKs never came.
        if next_hop is not None and self._node_down_at(next_hop, time):
            return VERDICT_NODE_DOWN
        last = frag.last_attempt()
        if last is not None and last.next_hop is not None:
            if last.outcomes.get(last.next_hop) == "collision":
                return VERDICT_COLLISION
        return base

    # -- queries --------------------------------------------------------------

    def messages(self) -> List[MessageTrace]:
        """All known messages in origination order."""
        return sorted(self._messages.values(), key=lambda m: (m.sent_at, m.origin, m.msg_id))

    def message(self, origin: int, msg_id: int) -> Optional[MessageTrace]:
        return self._messages.get((origin, msg_id))

    def find(self, token: str) -> List[MessageTrace]:
        """Resolve a trace id: ``"origin:msg_id"`` or a bare ``msg_id``."""
        if ":" in token:
            origin_s, msg_s = token.split(":", 1)
            msg_entry = self._messages.get((int(origin_s), int(msg_s)))
            return [msg_entry] if msg_entry is not None else []
        wanted = int(token)
        return [m for m in self.messages() if m.msg_id == wanted]

    def undelivered(self) -> List[MessageTrace]:
        return [m for m in self.messages() if not m.delivered]

    def fragment(self, src: int, packet_id: int) -> Optional[FragmentTrace]:
        return self._fragments.get((src, packet_id))

    def verdict_counts(self) -> Dict[str, int]:
        """Messages per terminal verdict (all verdicts present, maybe 0)."""
        counts = {verdict: 0 for verdict in ALL_VERDICTS}
        for msg in self._messages.values():
            counts[self.verdict(msg)] += 1
        return counts

    def drop_counts(self, by: str = "reason") -> Dict[str, int]:
        """Raw drop-event tallies grouped by ``reason``, ``node`` or ``link``."""
        if by == "reason":
            return dict(self._drops_by_reason)
        if by == "node":
            return {f"n{node}": count for node, count in self._drops_by_node.items()}
        if by == "link":
            return dict(self._drops_by_link)
        raise ValueError(f"unknown drop grouping {by!r} (want reason|node|link)")

    def forwarding_load(self) -> Dict[int, int]:
        """mesh.forward count per relay node."""
        return dict(self._forwards)

    def hop_latencies(self) -> List[float]:
        """Per-hop custody latencies (seconds) across all fragments."""
        latencies: List[float] = []
        for frag in self._fragments.values():
            chain = list(frag.custody)
            if frag.delivers:
                chain.append(frag.delivers[0])
            for (t_prev, _), (t_next, _) in zip(chain, chain[1:]):
                latencies.append(t_next - t_prev)
        return latencies

    def hop_latency_histogram(self, bucket_s: float = 0.5, max_buckets: int = 20) -> Dict[str, int]:
        """Histogram of hop latencies; the last bucket is open-ended."""
        histogram: Dict[str, int] = {}
        for latency in self.hop_latencies():
            index = min(int(latency / bucket_s), max_buckets - 1)
            low = index * bucket_s
            label = (
                f">={low:.1f}s" if index == max_buckets - 1 else f"{low:.1f}-{low + bucket_s:.1f}s"
            )
            histogram[label] = histogram.get(label, 0) + 1
        return histogram

    # -- causal timelines -----------------------------------------------------

    def timeline(self, msg: MessageTrace) -> List[TimelineEntry]:
        """The message's reconstructed hop-by-hop story, chronological."""
        entries: List[TimelineEntry] = []
        if msg.refused:
            entries.append(
                TimelineEntry(
                    msg.sent_at, msg.origin, "origin refused",
                    f"dst=n{msg.dst} reason={msg.refused_reason}",
                )
            )
        else:
            entries.append(
                TimelineEntry(
                    msg.sent_at, msg.origin, "origin",
                    f"dst=n{msg.dst} size={msg.size}B fragments={msg.n_fragments}",
                )
            )
        if msg.retry_of is not None:
            entries.append(
                TimelineEntry(msg.sent_at, msg.origin, "e2e retry", f"of msg {msg.retry_of}")
            )
        for packet_id in msg.fragment_ids:
            frag = self._fragments.get((msg.origin, packet_id))
            if frag is None:
                continue
            tag = f"frag {frag.seg_index + 1}/{frag.seg_total} (pkt {packet_id})"
            for attempt in frag.attempts:
                hop = "broadcast" if attempt.next_hop in (None, BROADCAST) else f"-> n{attempt.next_hop}"
                fate = self._attempt_fate(attempt)
                entries.append(
                    TimelineEntry(attempt.time, attempt.sender, f"tx {tag} {hop}", fate)
                )
            for time, node in frag.custody[1:]:
                entries.append(TimelineEntry(time, node, f"forward {tag}"))
            for time, node, reason, next_hop in frag.drops:
                where = "" if next_hop is None else f" next_hop=n{next_hop}"
                entries.append(
                    TimelineEntry(time, node, f"DROP {tag}", f"reason={reason}{where}")
                )
            for time, node in frag.delivers:
                entries.append(TimelineEntry(time, node, f"arrive {tag}"))
        if msg.delivered_at is not None:
            entries.append(
                TimelineEntry(
                    msg.delivered_at, msg.deliver_node, "DELIVERED",
                    f"latency={msg.delivered_at - msg.sent_at:.3f}s",
                )
            )
        else:
            verdict = self.verdict(msg)
            detail = verdict
            if verdict == VERDICT_IN_FLIGHT:
                stuck = self._stuck_detail(msg)
                if stuck:
                    detail = f"{verdict} ({stuck})"
            last_t = max((e.time for e in entries), default=msg.sent_at)
            entries.append(TimelineEntry(last_t, None, "VERDICT", detail))
        entries.sort(key=lambda e: e.time)
        return entries

    def _stuck_detail(self, msg: MessageTrace) -> str:
        """Where an in-flight message's fragments were last seen."""
        places: List[str] = []
        for packet_id in msg.fragment_ids:
            frag = self._fragments.get((msg.origin, packet_id))
            if frag is None or frag.delivers or frag.drops:
                continue
            holder = frag.custody[-1][1] if frag.custody else msg.origin
            state = "queued, never transmitted" if not frag.attempts else "in MAC queue"
            places.append(f"pkt {packet_id} {state} at n{holder}")
        return "; ".join(places)

    def _attempt_fate(self, attempt: _TxAttempt) -> str:
        if attempt.next_hop is not None and attempt.next_hop != BROADCAST:
            # No outcome: the next hop was below sensitivity or not attached.
            outcome = attempt.outcomes.get(attempt.next_hop)
            return f"at next hop: {outcome or 'lost'}"
        listeners = len(attempt.outcomes) + attempt.below_count
        if not listeners:
            return "no receivers"
        received = sum(1 for fate in attempt.outcomes.values() if fate == "rx")
        return f"heard by {received}/{listeners}"

    def explain(self, msg: MessageTrace) -> str:
        """Human-readable causal report for one message."""
        verdict = self.verdict(msg)
        header = (
            f"message {msg.trace_id} n{msg.origin} -> "
            f"{'broadcast' if msg.dst == BROADCAST else f'n{msg.dst}'}: {verdict}"
        )
        lines = [header]
        lines.extend(f"  {entry.render()}" for entry in self.timeline(msg))
        return "\n".join(lines)

    # -- export ---------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """Summary tables as one JSON-able dict (the dashboard's view)."""
        return {
            "messages": len(self._messages),
            "verdicts": self.verdict_counts(),
            "drops_by_reason": self.drop_counts("reason"),
            "drops_by_node": self.drop_counts("node"),
            "drops_by_link": self.drop_counts("link"),
            "forwarding_load": {f"n{node}": c for node, c in sorted(self._forwards.items())},
            "links": {
                f"{a}->{b}": {
                    "tx": stats.tx,
                    "rx": stats.rx,
                    "collisions": stats.collisions,
                    "loss_rate": stats.loss_rate,
                }
                for (a, b), stats in sorted(self._links.items())
            },
            "hop_latency_histogram": self.hop_latency_histogram(),
        }
