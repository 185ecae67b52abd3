"""Fleet-level aggregation across every network a server monitors.

One monitoring server ingests telemetry from many independent mesh
networks (the smart-campus deployment shape); the fleet overview is the
operator's first screen: one tile per network — node count, health,
PDR, ingest counters, last activity — plus fleet totals and the top-N
unhealthiest networks that deserve attention first.

Incremental tiles
-----------------

Until the push pipeline landed, every overview request re-scanned every
network's store (``O(networks × records)`` — 19 ms at 8 networks and
unusable at 512).  Now each :class:`~repro.monitor.registry.NetworkShard`
owns a :class:`TileAggregate` the ingest path feeds record-by-record:
per-node liveness/battery/duty snapshots and per-pair delivery counters
mirroring :func:`repro.monitor.metrics.pdr_matrix`'s matching rules with
bounded memory.  The aggregate keeps running sent/matched totals for the
tile's PDR and caches each node's health score: a tile re-scores only the
nodes whose inputs changed since the last tile, plus nodes whose liveness
is decaying (silent for one to five report intervals), and averages the
cached scores of the rest.  In steady state :func:`materialized_tile`
therefore scores one node per batch, however large the network, and its
remaining per-node work is summing cached floats.  :func:`fleet_overview`
assembles tiles into the overview document and caches it on the server
keyed by ingest progress, so steady-state reads are O(1) snapshot hits
no matter how many networks are resident.

Two documented deviations from the scan-based tiles: delivery counters
are cumulative since shard creation rather than windowed, and a cached
overview reflects the state as of the last ingest delta *or* the last
elapsed ``report_interval_s`` time bucket, whichever is newer — so
liveness-driven health keeps decaying while a fleet is silent instead
of freezing at its last healthy snapshot.

The aggregates are mutated by the ingest path under the server lock,
and a read refreshes the cached scores; HTTP handler threads therefore
read them through
:meth:`~repro.monitor.server.MonitorServer.materialize_tile` /
:meth:`~repro.monitor.server.MonitorServer.materialize_tiles`, which
take the same lock (:func:`materialized_tile` itself is lock-free and
is only called directly where the lock is already held).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.mesh.addressing import BROADCAST
from repro.mesh.packet import PacketType
from repro.monitor import health as health_mod
from repro.monitor.alerts import NodeDelta
from repro.monitor.records import Direction, PacketRecord, StatusRecord
from repro.monitor.storage import MetricsStore

if TYPE_CHECKING:
    from repro.monitor.registry import NetworkShard
    from repro.monitor.server import MonitorServer

#: Bound on per-pair pending packet-id match state (ids kept while the
#: other endpoint's observation has not arrived yet).
DEFAULT_PENDING_IDS = 4096

_DATA_PTYPE = int(PacketType.DATA)


def _remember(ring: "OrderedDict[int, None]", key: int, bound: int) -> None:
    """Insert ``key`` into a bounded insertion-ordered set."""
    ring[key] = None
    if len(ring) > bound:
        ring.popitem(last=False)


class _NodeTelemetry:
    """One node's latest-state snapshot, fed at ingest time, and its
    cached health score."""

    __slots__ = (
        "last_seen",
        "battery_v",
        "duty_utilisation",
        "queue_depth",
        "sent",
        "matched",
        "score",
        "silence_min",
        "silence_max",
    )

    def __init__(self) -> None:
        self.last_seen: Optional[float] = None
        self.battery_v: Optional[float] = None
        self.duty_utilisation: Optional[float] = None
        self.queue_depth: Optional[int] = None
        #: Unicast DATA packets this node originated / saw delivered.
        self.sent = 0
        self.matched = 0
        #: Cached health score; None until scored and after any input
        #: changes.  It holds while the silence (``now - last_seen``)
        #: stays within ``[silence_min, silence_max]``.
        self.score: Optional[float] = None
        self.silence_min = 0.0
        self.silence_max = 0.0

    def rescore(self, now: float, report_interval_s: float) -> float:
        """Score the node at ``now`` and cache the score.

        The liveness term is the only input that moves with the clock,
        so the cached score keeps the range of silences that give the
        same liveness bit for bit.  For a positive interval, liveness is
        exactly 1.0 up to one interval of silence (even after a clock
        step back), and once it reaches 0.0 it never rises again.  In
        the decay band between, only the silence it was computed at
        gives the same value.
        """
        liveness = health_mod.liveness_component(self.last_seen, now, report_interval_s)
        score = health_mod.node_score(
            liveness,
            self.matched / self.sent if self.sent else None,
            health_mod.spectrum_component(self.duty_utilisation),
            health_mod.battery_component(self.battery_v),
        )
        self.score = score
        if self.last_seen is not None:
            silence = now - self.last_seen
            if liveness == 1.0:
                self.silence_min, self.silence_max = -math.inf, report_interval_s
            elif liveness == 0.0:
                self.silence_min, self.silence_max = silence, math.inf
            else:
                self.silence_min = self.silence_max = silence
        return score


class _PairDelivery:
    """Bounded incremental mirror of :class:`repro.monitor.metrics.PairDelivery`.

    ``sent`` counts origin first-attempt OUT observations; ``matched``
    counts packet ids seen at *both* endpoints, whichever side reported
    first.  Pending ids waiting for the other side live in bounded
    insertion-ordered sets, so per-pair memory does not grow with
    traffic; an id evicted before its match simply never matches (the
    same packet is then conservatively counted as undelivered).
    """

    __slots__ = ("sent", "matched", "_out_unmatched", "_out_matched", "_in_pending", "_bound")

    def __init__(self, bound: int) -> None:
        self.sent = 0
        self.matched = 0
        self._bound = bound
        self._out_unmatched: "OrderedDict[int, None]" = OrderedDict()
        self._out_matched: "OrderedDict[int, None]" = OrderedDict()
        self._in_pending: "OrderedDict[int, None]" = OrderedDict()

    def observe_out(self, packet_id: int) -> Optional[bool]:
        """Origin reported the send; True when this completed a match.

        None when the origin already reported this packet id (a routing
        loop can bring a packet back to its origin): nothing is counted.
        """
        if packet_id in self._out_unmatched or packet_id in self._out_matched:
            return None
        self.sent += 1
        if packet_id in self._in_pending:
            del self._in_pending[packet_id]
            self.matched += 1
            _remember(self._out_matched, packet_id, self._bound)
            return True
        _remember(self._out_unmatched, packet_id, self._bound)
        return False

    def observe_in(self, packet_id: int) -> bool:
        """Destination reported delivery; True when this completed a match."""
        if packet_id in self._out_matched or packet_id in self._in_pending:
            return False  # duplicate delivery report
        if packet_id in self._out_unmatched:
            del self._out_unmatched[packet_id]
            self.matched += 1
            _remember(self._out_matched, packet_id, self._bound)
            return True
        _remember(self._in_pending, packet_id, self._bound)
        return False


class TileAggregate:
    """Everything a fleet tile needs, maintained incrementally at ingest.

    The ingest path calls :meth:`observe_batch` / :meth:`observe_packet`
    / :meth:`observe_status` for each accepted record (under the server
    lock — all methods are pure in-memory bookkeeping).  Each call drops
    the cached score of the node whose inputs it changed, so a read
    re-scores only those nodes and the decaying ones, instead of
    touching every record in the store.
    """

    def __init__(self, pending_ids: int = DEFAULT_PENDING_IDS) -> None:
        self._pending_ids = pending_ids
        self._nodes: Dict[int, _NodeTelemetry] = {}
        self._pairs: Dict[Tuple[int, int], _PairDelivery] = {}
        #: The pairs' ``sent`` and ``matched`` summed, kept as they move.
        self._sent = 0
        self._matched = 0
        #: The report interval the cached node scores were computed with.
        self._scored_interval: Optional[float] = None

    # -- feeding ---------------------------------------------------------------

    def _node(self, node: int) -> _NodeTelemetry:
        telemetry = self._nodes.get(node)
        if telemetry is None:
            telemetry = _NodeTelemetry()
            self._nodes[node] = telemetry
        return telemetry

    def _pair(self, src: int, dst: int) -> _PairDelivery:
        key = (src, dst)
        pair = self._pairs.get(key)
        if pair is None:
            pair = _PairDelivery(self._pending_ids)
            self._pairs[key] = pair
        return pair

    def observe_batch(self, node: int, now: float) -> None:
        """A batch from ``node`` was accepted at server time ``now``."""
        telemetry = self._node(node)
        telemetry.last_seen = now
        telemetry.score = None

    def observe_packet(self, record: PacketRecord) -> None:
        """One accepted packet record (mirrors ``pdr_matrix`` filters)."""
        self._node(record.node)  # the observer is a known node
        if record.ptype != _DATA_PTYPE or record.dst == BROADCAST:
            return
        if record.direction is Direction.OUT:
            if record.node == record.src and record.attempt == 1:
                matched = self._pair(record.src, record.dst).observe_out(record.packet_id)
                if matched is None:
                    return
                telemetry = self._node(record.src)
                telemetry.sent += 1
                self._sent += 1
                if matched:
                    telemetry.matched += 1
                    self._matched += 1
                telemetry.score = None
        else:
            if record.node == record.dst:
                if self._pair(record.src, record.dst).observe_in(record.packet_id):
                    self._matched += 1
                    # The delivery moves the source's score, not the observer's.
                    source = self._nodes.get(record.src)
                    if source is not None:
                        source.matched += 1
                        source.score = None

    def observe_status(self, record: StatusRecord) -> None:
        """One accepted status record: refresh the node's snapshot."""
        telemetry = self._node(record.node)
        telemetry.battery_v = record.battery_v
        telemetry.duty_utilisation = record.duty_utilisation
        telemetry.queue_depth = record.queue_depth
        telemetry.score = None

    def seed_from_store(self, store: MetricsStore) -> None:
        """Replay an already populated store into the aggregates.

        Called once when a shard adopts an external store (the
        historical single-network API) so tiles start from the store's
        state; a freshly created store replays nothing.
        """
        for record in store.packet_records():
            self.observe_packet(record)
        for node in store.nodes():
            self._node(node)
            status = store.latest_status(node)
            if status is not None:
                self.observe_status(status)
            last = store.last_seen(node)
            if last is not None:
                self.observe_batch(node, last)

    # -- reading ---------------------------------------------------------------

    def node_delta(self, node: int) -> NodeDelta:
        """The node's current snapshot for O(delta) alert evaluation.

        Pure in-memory read (no store access) so the ingest path can
        call it under the server lock.  An unknown node yields an empty
        delta — every field None, so no rule can judge it yet.
        """
        telemetry = self._nodes.get(node)
        if telemetry is None:
            return NodeDelta(node=node)
        return NodeDelta(
            node=node,
            last_seen=telemetry.last_seen,
            battery_v=telemetry.battery_v,
            duty_utilisation=telemetry.duty_utilisation,
            queue_depth=telemetry.queue_depth,
        )

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def pdr(self) -> float:
        """Aggregate delivery ratio across all unicast pairs (NaN if idle)."""
        return self._matched / self._sent if self._sent else math.nan

    def health(self, now: float, report_interval_s: float = 60.0) -> float:
        """Network health: the mean of the defined node scores (NaN if none).

        Each node is scored by :func:`repro.monitor.health.node_score`
        from its last accepted batch, its incremental match counters and
        its latest status snapshot.  A node's cached score is reused
        while its inputs are unchanged and its silence still gives the
        same liveness (see :meth:`_NodeTelemetry.rescore`); a different
        ``report_interval_s`` drops every cached score.
        """
        if report_interval_s != self._scored_interval:
            self._scored_interval = report_interval_s
            for telemetry in self._nodes.values():
                telemetry.score = None
        total = 0.0
        count = 0
        for telemetry in self._nodes.values():
            score = telemetry.score
            last_seen = telemetry.last_seen
            if score is None or (
                last_seen is not None
                and not telemetry.silence_min <= now - last_seen <= telemetry.silence_max
            ):
                score = telemetry.rescore(now, report_interval_s)
            if not math.isnan(score):
                total += score
                count += 1
        return total / count if count else math.nan


def materialized_tile(
    shard: "NetworkShard",
    now: float,
    report_interval_s: float = 60.0,
) -> Dict[str, Any]:
    """One network's fleet tile from its incremental aggregates."""
    tile = shard.tile
    health = tile.health(now, report_interval_s=report_interval_s)
    pdr = tile.pdr()
    return {
        "network": shard.network_id,
        "nodes": tile.node_count,
        "health": None if math.isnan(health) else round(health, 1),
        "pdr": None if math.isnan(pdr) else round(pdr, 4),
        "batches_ingested": shard.batches_ingested,
        "records_ingested": shard.records_ingested,
        "dedup_hits": shard.dedup_hits,
        "last_batch_at": shard.last_batch_at,
    }


def network_tile(
    server: "MonitorServer",
    network_id: str,
    now: float,
    report_interval_s: float = 60.0,
) -> Optional[Dict[str, Any]]:
    """One network's fleet tile, or None for an unknown network."""
    shard = server.shard_for(network_id)
    if shard is None:
        return None
    # Through the server so the tile aggregates are read under the same
    # lock the ingest path mutates them with.
    return server.materialize_tile(shard, now, report_interval_s=report_interval_s)


def fleet_overview(
    server: "MonitorServer",
    now: float,
    report_interval_s: float = 60.0,
    top_n_unhealthy: int = 5,
) -> Dict[str, Any]:
    """The ``GET /api/v1/fleet`` document — a snapshot read, not a scan.

    Keys:
        now: server time the overview was computed at.
        networks: one tile per resident network, sorted by id.
        totals: fleet-wide sums (networks, nodes, batches, records).
        top_unhealthy: up to ``top_n_unhealthy`` tiles with the lowest
            defined health score, worst first — the triage list.

    The assembled document is cached on the server keyed by ingest
    progress (batches ingested, evictions, resident networks) plus the
    rendering parameters *and* a coarse time bucket
    (``now // report_interval_s``): steady-state reads between deltas
    return the cached snapshot in O(1), but a cached document never
    outlives one report interval — a fleet that goes entirely silent
    keeps re-scoring, so liveness-driven health and the triage list
    decay instead of freezing.  Treat the returned document as
    immutable.
    """
    key = server.fleet_version() + (
        report_interval_s,
        top_n_unhealthy,
        math.floor(now / report_interval_s),
    )
    cached = server.fleet_cache_get(key)
    if cached is not None:
        return cached
    tiles = server.materialize_tiles(now, report_interval_s=report_interval_s)
    totals = {
        "networks": len(tiles),
        "nodes": sum(int(tile["nodes"]) for tile in tiles),
        "batches_ingested": sum(int(tile["batches_ingested"]) for tile in tiles),
        "records_ingested": sum(int(tile["records_ingested"]) for tile in tiles),
        "network_evictions": server.registry.evictions,
    }
    scored = [tile for tile in tiles if tile["health"] is not None]
    scored.sort(key=lambda tile: float(tile["health"]))
    document = {
        "now": now,
        "networks": tiles,
        "totals": totals,
        "top_unhealthy": scored[:top_n_unhealthy],
    }
    server.fleet_cache_put(key, document)
    return document
