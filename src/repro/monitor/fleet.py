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
owns a :class:`TileAggregate` over its store.  Everything the tile
scores comes from the shard store's
:class:`~repro.monitor.aggregate.ViewAggregate`, the one holder of each
node's latest state (status record of highest seq, last batch time) and
of the exact per-pair delivery state the dashboard reads, so the tile's
PDR is ``metrics.network_pdr`` of the store and a node's delivery term
is its ``pdr_matrix`` ratio over all retained records, however long a
destination takes to report.  The tile itself keeps only each node's
cached health score: a tile re-scores only the nodes whose inputs
changed since the last tile (a batch, a status, or their delivery
counts), plus nodes whose liveness is decaying (silent for one to five
report intervals), and averages the cached scores of the rest.  In
steady state :func:`materialized_tile` therefore scores one node per
batch, however large the network, and its remaining per-node work is
comparing counts and summing cached floats.  :func:`fleet_overview`
assembles tiles into the overview document and caches it on the server
keyed by ingest progress, so steady-state reads are O(1) snapshot hits
no matter how many networks are resident.

Two documented deviations from the dashboard's health panel: delivery
counts cover all retained records rather than the 1800 s window, and a
cached overview reflects the state as of the last ingest delta *or*
the last elapsed ``report_interval_s`` time bucket, whichever is newer
— so liveness-driven health keeps decaying while a fleet is silent
instead of freezing at its last healthy snapshot.

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
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.monitor import health as health_mod
from repro.monitor.aggregate import NodeState
from repro.monitor.alerts import NodeDelta
from repro.monitor.records import PacketRecord, StatusRecord
from repro.monitor.storage import MetricsStore

if TYPE_CHECKING:
    from repro.monitor.registry import NetworkShard
    from repro.monitor.server import MonitorServer

#: Tiles in the fleet overview's triage list (``top_unhealthy``).
TOP_N_UNHEALTHY = 5


class _NodeScore:
    """One node's cached health score and the delivery counts it was
    computed from."""

    __slots__ = ("delivery", "score", "silence_min", "silence_max")

    def __init__(self) -> None:
        #: (sent, delivered) unicast DATA packets this node originated,
        #: as the store's aggregate counted them when last scored.
        self.delivery: Tuple[int, int] = (0, 0)
        #: Cached health score; None until scored and after any input
        #: changes.  It holds while the silence (``now - last_seen``)
        #: stays within ``[silence_min, silence_max]``.
        self.score: Optional[float] = None
        self.silence_min = 0.0
        self.silence_max = 0.0

    def rescore(self, state: NodeState, now: float, report_interval_s: float) -> float:
        """Score the node in ``state`` at ``now`` and cache the score.

        The liveness term is the only input that moves with the clock,
        so the cached score keeps the range of silences that give the
        same liveness bit for bit.  For a positive interval, liveness is
        exactly 1.0 up to one interval of silence (even after a clock
        step back), and once it reaches 0.0 it never rises again.  In
        the decay band between, only the silence it was computed at
        gives the same value.
        """
        last_seen = state.last_seen
        status = state.status
        liveness = health_mod.liveness_component(last_seen, now, report_interval_s)
        sent, delivered = self.delivery
        score = health_mod.node_score(
            liveness,
            delivered / sent if sent else None,
            health_mod.spectrum_component(None if status is None else status.duty_utilisation),
            health_mod.battery_component(None if status is None else status.battery_v),
        )
        self.score = score
        if last_seen is not None:
            silence = now - last_seen
            if liveness == 1.0:
                self.silence_min, self.silence_max = -math.inf, report_interval_s
            elif liveness == 0.0:
                self.silence_min, self.silence_max = silence, math.inf
            else:
                self.silence_min = self.silence_max = silence
        return score


class TileAggregate:
    """A fleet tile's cached node scores over one shard store.

    Each node's state (its latest status, last batch time) and delivery
    come from the store's :class:`~repro.monitor.aggregate.ViewAggregate`;
    the tile keeps only each node's cached score.  The ingest path calls
    :meth:`observe_batch` / :meth:`observe_packet` / :meth:`observe_status`
    for each accepted batch and record, after the store took them (under
    the server lock), which drops the cached score of the node whose
    inputs changed; a read also re-scores the nodes whose delivery
    counts moved, instead of touching every record in the store.
    """

    def __init__(self, store: MetricsStore) -> None:
        self._store = store
        self._aggregate = store.aggregate
        self._scores: Dict[int, _NodeScore] = {}
        #: The report interval the cached node scores were computed with.
        self._scored_interval: Optional[float] = None

    # -- feeding ---------------------------------------------------------------

    def _drop_score(self, node: int) -> None:
        entry = self._scores.get(node)
        if entry is not None:
            entry.score = None

    def observe_batch(self, node: int, now: float) -> None:
        """A batch from ``node`` was accepted at server time ``now``."""
        self._drop_score(node)

    def observe_packet(self, record: PacketRecord) -> None:
        """One accepted packet record: nothing to drop (a read compares delivery counts)."""

    def observe_status(self, record: StatusRecord) -> None:
        """One accepted status record: the node's latest state may have moved."""
        self._drop_score(record.node)

    # -- reading ---------------------------------------------------------------

    def node_delta(self, node: int) -> NodeDelta:
        """The node's current snapshot for O(delta) alert evaluation.

        The sweep's own :meth:`NodeDelta.from_store`: it reads the
        store's in-memory node state (no query), so the ingest path can
        call it under the server lock and both alert paths judge one record.  An
        unknown node yields an empty delta — every field None, so no
        rule can judge it yet.
        """
        return NodeDelta.from_store(self._store, node)

    @property
    def node_count(self) -> int:
        return len(self._aggregate.nodes)

    def pdr(self) -> float:
        """Aggregate delivery ratio across all unicast pairs (NaN if idle)."""
        return self._aggregate.network_pdr()

    def health(self, now: float, report_interval_s: float = 60.0) -> float:
        """Network health: the mean of the defined node scores (NaN if none).

        Each node of the store is scored by
        :func:`repro.monitor.health.node_score` from its state and its
        delivery counts in the store's aggregate, in the order the store
        first heard of it.  A node's cached score is reused while its
        inputs are unchanged and its silence still gives the same
        liveness (see :meth:`_NodeScore.rescore`); a different
        ``report_interval_s`` drops every cached score.
        """
        scores = self._scores
        if report_interval_s != self._scored_interval:
            self._scored_interval = report_interval_s
            for entry in scores.values():
                entry.score = None
        aggregate = self._aggregate
        total = 0.0
        count = 0
        with aggregate.lock:
            delivery = aggregate.source_delivery()
            for node, state in aggregate.nodes.items():
                entry = scores.get(node)
                if entry is None:
                    entry = scores[node] = _NodeScore()
                counts = delivery.get(node, (0, 0))
                if counts != entry.delivery:
                    entry.delivery = counts
                    entry.score = None
                score = entry.score
                last_seen = state.last_seen
                if score is None or (
                    last_seen is not None
                    and not entry.silence_min <= now - last_seen <= entry.silence_max
                ):
                    score = entry.rescore(state, now, report_interval_s)
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
) -> Dict[str, Any]:
    """The ``GET /api/v1/fleet`` document — a snapshot read, not a scan.

    Keys:
        now: server time the overview was computed at.
        networks: one tile per resident network, sorted by id.
        totals: fleet-wide sums (networks, nodes, batches, records).
        top_unhealthy: up to :data:`TOP_N_UNHEALTHY` tiles with the lowest
            defined health score, worst first — the triage list.

    The assembled document is cached on the server keyed by ingest
    progress (batches ingested, evictions, resident networks) plus the
    report interval *and* a coarse time bucket
    (``now // report_interval_s``): steady-state reads between deltas
    return the cached snapshot in O(1), but a cached document never
    outlives one report interval — a fleet that goes entirely silent
    keeps re-scoring, so liveness-driven health and the triage list
    decay instead of freezing.  Treat the returned document as
    immutable.
    """
    key = server.fleet_version() + (
        report_interval_s,
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
        "top_unhealthy": scored[:TOP_N_UNHEALTHY],
    }
    server.fleet_cache_put(key, document)
    return document
