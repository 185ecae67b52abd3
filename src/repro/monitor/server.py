"""Monitoring server: ingestion, validation, deduplication.

The server accepts batches in either wire format (JSON from the
out-of-band uplink, binary from the gateway bridge), validates them,
deduplicates records on (network, node, record-kind, seq) — the client
retries failed batches under new batch sequence numbers but stable
record sequence numbers — and writes accepted records into the
per-network :class:`~repro.monitor.storage.MetricsStore` (or the SQLite
store) through the store's batched write API.  Every batch is processed
in the caller's thread, so each caller gets its own batch's result.

Multi-tenancy
-------------

One server ingests telemetry from **many independent mesh networks**.
Every batch carries a ``network_id`` (implicitly ``"default"`` for
single-network clients) and is routed to that network's
:class:`~repro.monitor.registry.NetworkShard` — its own store, dedup
windows and counters, managed by a
:class:`~repro.monitor.registry.NetworkRegistry` with lazy shard
creation and LRU eviction.  Single-network callers see no difference:
``MonitorServer(store=...)`` makes the injected store the ``default``
network's shard and the ``store`` attribute keeps pointing at it.

Observability ("monitor the monitor")
-------------------------------------

:class:`ServerSelfMetrics` counts what the ingestion pipeline does —
batches/records ingested, dedup hits, decode failures.
:meth:`MonitorServer.self_metrics_document` adds the store flush count
and latencies, read from the one flush ledger the stores keep (see
:meth:`~repro.monitor.registry.NetworkRegistry.flush_totals`), which
still counts the stores of evicted shards.  The document is exposed as
``GET /api/v1/server`` by :mod:`repro.monitor.httpapi` and rendered in
the dashboard's ``[server]`` panel.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.errors import ConfigurationError, DecodeError
from repro.monitor.codec import CODECS, Codec, resolve_codec
from repro.monitor.fleet import materialized_tile
from repro.monitor.ingest import (
    DEFAULT_NETWORK_ID,
    IngestResult,
    SeqWindow,
    ServerSelfMetrics,
    ServerStats,
)
from repro.monitor.records import RecordBatch
from repro.monitor.registry import NetworkRegistry, NetworkShard, StoreFactory
from repro.monitor.rollup import bucket_document
from repro.monitor.storage import FlushStats, MetricsStore
from repro.monitor.stream.events import FLEET_TOPIC, network_topic
from repro.monitor.stream.hub import StreamHub

if TYPE_CHECKING:
    from repro.monitor.alerts import Alert
    from repro.monitor.transport.base import IngestTransport


class MonitorServer:
    """Multi-tenant ingestion endpoint feeding per-network metrics stores."""

    def __init__(
        self,
        store: Optional[MetricsStore] = None,
        clock: Optional[Callable[[], float]] = None,
        store_factory: Optional[StoreFactory] = None,
        max_networks: Optional[int] = None,
        report_interval_s: float = 60.0,
    ) -> None:
        """Create a server.

        Args:
            store: backing store for the implicit ``default`` network (a
                fresh one is created lazily when omitted).
            clock: returns "server time"; inside a simulation pass the
                simulator's ``now``.  Defaults to 0.0 (tests that do not
                care about liveness).
            store_factory: builds the store for each newly seen network
                (default: an in-memory :class:`MetricsStore` per network).
            max_networks: bound on resident network shards; the
                least-recently-active shard is evicted beyond it.
            report_interval_s: expected client report interval.  It sets
                the shards' alert thresholds, scores the fleet tiles
                published on the stream, and spaces the full-rule alert
                sweeps (see :meth:`maybe_sweep_alerts`).
        """
        if report_interval_s <= 0:
            raise ConfigurationError(
                f"report_interval_s must be > 0, got {report_interval_s}"
            )
        self.registry = NetworkRegistry(
            store_factory=store_factory,
            max_networks=max_networks,
            report_interval_s=report_interval_s,
        )
        if store is not None:
            self.registry.adopt(DEFAULT_NETWORK_ID, store)
        self._clock = clock or (lambda: 0.0)
        # Reentrant, though no server method takes it while holding it:
        # ingest and the alert sweeps call the injected clock with it
        # held, and a clock that reads the server back must not deadlock.
        self._lock = threading.RLock()
        self.self_metrics = ServerSelfMetrics()  # guarded-by: _lock
        self.report_interval_s = report_interval_s
        #: Server clock of the last full-rule alert sweep (None before
        #: the cadence is anchored by the first maybe_sweep_alerts call).
        self._last_alert_sweep_at: Optional[float] = None  # guarded-by: _lock
        #: Full-rule sweeps run over the server's lifetime.
        self.alert_sweeps = 0  # guarded-by: _lock
        self._transports: List[IngestTransport] = []  # guarded-by: _lock
        #: Push-pipeline fan-out.  The ingest path publishes while
        #: holding the server lock (``MonitorServer._lock`` ->
        #: ``StreamHub._lock`` is the sanctioned order); the hub is a
        #: leaf that never calls back into the server.
        self.stream = StreamHub(clock=self._clock)
        #: Cached assembled fleet-overview document, keyed by ingest
        #: progress + report interval (see fleet.fleet_overview).
        self._fleet_cache: Optional[Any] = None  # guarded-by: _lock

    # -- tenancy --------------------------------------------------------------

    @property
    def store(self) -> MetricsStore:
        """The ``default`` network's store (the historical attribute)."""
        return self.registry.default.store

    def networks(self) -> List[str]:
        """Ids of every resident network, sorted."""
        return self.registry.network_ids()

    def shard_for(self, network_id: str) -> Optional[NetworkShard]:
        """The shard for ``network_id``, or None if never seen/evicted."""
        return self.registry.get(network_id)

    def store_for(self, network_id: str) -> Optional[MetricsStore]:
        """The metrics store for ``network_id``, or None if not resident."""
        shard = self.registry.get(network_id)
        return shard.store if shard is not None else None

    # -- fleet snapshot cache -------------------------------------------------

    def fleet_version(self) -> tuple:
        """Ingest-progress fingerprint the fleet-overview cache is keyed on.

        Any accepted batch, eviction, or change in resident networks
        changes the fingerprint, invalidating the cached overview.
        """
        with self._lock:
            return (
                self.self_metrics.batches_ingested,
                self.registry.evictions,
                len(self.registry),
            )

    def fleet_cache_get(self, key: tuple) -> Optional[Dict[str, Any]]:
        """The cached fleet-overview document for ``key``, if current."""
        with self._lock:
            cached = self._fleet_cache
            if cached is not None and cached[0] == key:
                return cached[1]  # type: ignore[no-any-return]
            return None

    def fleet_cache_put(self, key: tuple, document: Dict[str, Any]) -> None:
        """Remember the assembled overview for ``key`` (latest wins)."""
        with self._lock:
            self._fleet_cache = (key, document)

    def materialize_tile(
        self,
        shard: NetworkShard,
        now: float,
        report_interval_s: float = 60.0,
    ) -> Dict[str, Any]:
        """Render ``shard``'s fleet tile under the server lock.

        The tile aggregates are plain dicts the ingest path mutates
        under the server lock, so handler threads must take the same
        lock to iterate them (RL100) — otherwise a concurrent ingest
        can resize a dict mid-iteration.  The ingest path calls
        :func:`repro.monitor.fleet.materialized_tile` directly because
        it already holds the lock.
        """
        with self._lock:
            return materialized_tile(shard, now, report_interval_s=report_interval_s)

    def materialize_tiles(
        self, now: float, report_interval_s: float = 60.0
    ) -> List[Dict[str, Any]]:
        """Every resident network's tile, sorted by id, one lock hold."""
        with self._lock:
            shards = sorted(self.registry, key=lambda shard: shard.network_id)
            return [
                materialized_tile(shard, now, report_interval_s=report_interval_s)
                for shard in shards
            ]

    # -- ingest --------------------------------------------------------------

    def ingest_json(self, raw: bytes, network_id: Optional[str] = None) -> IngestResult:
        """Ingest an out-of-band JSON batch (see :meth:`_ingest_wire`)."""
        return self._ingest_wire(raw, RecordBatch.from_json_bytes, network_id)

    def ingest_binary(self, raw: bytes, network_id: Optional[str] = None) -> IngestResult:
        """Ingest an in-band batch in the binary codec (via the gateway bridge).

        An in-band batch does not spend airtime on a network id; the
        bridge that receives it knows which network its gateway belongs
        to and passes ``network_id`` here.
        """
        return self._ingest_wire(raw, CODECS["binary"].decode, network_id)

    def ingest_encoded(
        self,
        raw: bytes,
        codec: Union[Codec, str],
        network_id: Optional[str] = None,
    ) -> IngestResult:
        """Ingest wire bytes in any registered codec (see :meth:`_ingest_wire`)."""
        return self._ingest_wire(raw, resolve_codec(codec).decode, network_id)

    def _ingest_wire(
        self,
        raw: bytes,
        decode: Callable[[bytes], RecordBatch],
        network_id: Optional[str],
    ) -> IngestResult:
        """Decode wire bytes and submit the batch.

        Args:
            raw: wire bytes.
            decode: the codec's decoder.
            network_id: when given (a network-scoped HTTP ingest route,
                or the gateway bridge of one network), the batch must
                belong to this network: an unstamped batch is stamped
                with it, a batch stamped with a *different* network is
                refused.
        """
        with self._lock:
            self.self_metrics.bytes_received += len(raw)
        try:
            # Decode outside the lock: parsing is pure CPU work on
            # thread-local bytes.
            batch = decode(raw)
            if network_id is not None and batch.network_id != network_id:
                if batch.network_id != DEFAULT_NETWORK_ID:
                    raise DecodeError(
                        f"batch is stamped for network {batch.network_id!r} "
                        f"but was posted to network {network_id!r}"
                    )
                batch = dataclasses.replace(batch, network_id=network_id)
        except DecodeError as exc:
            with self._lock:
                self.self_metrics.decode_failures += 1
            return IngestResult(ok=False, error=str(exc))
        return self.submit(batch)

    def submit(self, batch: RecordBatch) -> IngestResult:
        """Process ``batch`` in the caller's thread and return its result.

        After the batch, the paced full-rule alert sweep runs (see
        :meth:`maybe_sweep_alerts`): it catches the conditions the
        O(delta) observe path cannot judge — a *silent* node in an
        otherwise active fleet, windowed cross-node rules like low PDR.
        """
        result = self._ingest(batch)
        self.maybe_sweep_alerts()
        return result

    # -- transports ----------------------------------------------------------

    def attach_transport(self, transport: "IngestTransport") -> "IngestTransport":
        """Register a transport so its counters join the self-metrics.

        The server does not start the transport (the serve CLI owns the
        lifecycle) but :meth:`close` stops every attached one.
        """
        with self._lock:
            self._transports.append(transport)
        return transport

    @property
    def transports(self) -> List["IngestTransport"]:
        """The attached transports (read-only view)."""
        with self._lock:
            return list(self._transports)

    def note_datagram_batch(self, network_id: str) -> None:
        """Count one datagram-delivered batch against ``network_id``.

        Transports must not reach into shard counters themselves — shard
        bookkeeping is guarded by the server lock.
        """
        with self._lock:
            shard = self.registry.get(network_id)
            if shard is not None:
                shard.datagram_batches += 1

    # -- alert sweeping -------------------------------------------------------

    def sweep_alerts(self, now: Optional[float] = None) -> List["Alert"]:
        """Full-rule sweep over every shard's alert engine; returns raised.

        The ingest path's :meth:`AlertEngine.observe` judges only the
        node a batch touched, so rules that fire on the *absence* of
        deltas (silent-node raising) or on cross-node windows (low PDR)
        need this periodic sweep.  Raised and cleared alerts are
        published onto the network's stream topic exactly like the
        observe path's, so SSE subscribers see them live.  Wired in two
        places: :meth:`submit` calls :meth:`maybe_sweep_alerts` after
        every batch, and the HTTP tier runs a timer so a fleet that
        goes entirely silent still raises; library users driving their
        own clock can call it directly.
        """
        raised_all: List["Alert"] = []
        with self._lock:
            if now is None:
                now = self._clock()
            self._last_alert_sweep_at = now
            self.alert_sweeps += 1
            for shard in self.registry:
                raised, cleared = shard.alerts.evaluate_changes(now)
                if not raised and not cleared:
                    continue
                topic = network_topic(shard.network_id)
                for alert in raised:
                    data = alert.to_json_dict()
                    data["network"] = shard.network_id
                    self.stream.publish(topic, "alert-raised", data, at=now)
                for alert in cleared:
                    data = alert.to_json_dict()
                    data["network"] = shard.network_id
                    data["cleared_at"] = now
                    self.stream.publish(topic, "alert-cleared", data, at=now)
                raised_all.extend(raised)
        return raised_all

    def maybe_sweep_alerts(self, now: Optional[float] = None) -> List["Alert"]:
        """Run :meth:`sweep_alerts` if ``report_interval_s`` elapsed.

        The first call only anchors the cadence (nothing worth sweeping
        exists before one interval of history).  The elapsed check and
        the timestamp claim happen atomically under the server lock, so
        concurrent callers (handler threads, the HTTP sweep timer)
        cannot double-sweep the same slot.
        """
        with self._lock:
            if now is None:
                now = self._clock()
            last = self._last_alert_sweep_at
            if last is None:
                self._last_alert_sweep_at = now
                return []
            if now - last < self.report_interval_s:
                return []
            self._last_alert_sweep_at = now  # claim the slot
        return self.sweep_alerts(now)

    # -- processing ----------------------------------------------------------

    def _ingest(self, batch: RecordBatch) -> IngestResult:
        with self._lock:
            shard = self.registry.get_or_create(batch.network_id)
            packet_window = shard.packet_windows.setdefault(batch.node, SeqWindow())
            status_window = shard.status_windows.setdefault(batch.node, SeqWindow())
            accepted_packets = []
            accepted_status = []
            duplicates = 0
            for record in batch.packet_records:
                if record.node != batch.node:
                    # A client may only report its own observations.
                    self.self_metrics.foreign_records_rejected += 1
                    continue
                if packet_window.check_and_add(record.seq):
                    accepted_packets.append(record)
                else:
                    duplicates += 1
            for record in batch.status_records:
                if record.node != batch.node:
                    self.self_metrics.foreign_records_rejected += 1
                    continue
                if status_window.check_and_add(record.seq):
                    accepted_status.append(record)
                else:
                    duplicates += 1
            store = shard.store
            if accepted_packets:
                store.add_packet_records(accepted_packets)
            if accepted_status:
                store.add_status_records(accepted_status)
            now = self._clock()
            # ``dropped_records`` is the client's cumulative count, so
            # a resent batch leaves the store's highest unchanged.
            store.note_batch(batch.node, now, batch.dropped_records)
            accepted = len(accepted_packets) + len(accepted_status)
            self.self_metrics.batches_ingested += 1
            self.self_metrics.packet_records_ingested += len(accepted_packets)
            self.self_metrics.status_records_ingested += len(accepted_status)
            self.self_metrics.dedup_hits += duplicates
            shard.batches_ingested += 1
            shard.records_ingested += accepted
            shard.dedup_hits += duplicates
            shard.last_batch_at = now
            # Incremental read path + push pipeline: feed the shard's
            # tile/rollup/alert aggregates and publish the deltas.  All
            # of it is in-memory bookkeeping; publishing under the
            # server lock keeps event order consistent with the
            # counters the events report (server -> hub is the
            # sanctioned lock order, and the hub is a leaf).
            shard.tile.observe_batch(batch.node, now)
            for record in accepted_packets:
                shard.rollup.add(record.timestamp, float(record.size_bytes))
                shard.tile.observe_packet(record)
            for record in accepted_status:
                shard.tile.observe_status(record)
            topic = network_topic(batch.network_id)
            self.stream.publish(
                topic,
                "ingest-delta",
                {
                    "network": batch.network_id,
                    "node": batch.node,
                    "accepted_packets": len(accepted_packets),
                    "accepted_status": len(accepted_status),
                    "duplicates": duplicates,
                    "batches_ingested": shard.batches_ingested,
                    "records_ingested": shard.records_ingested,
                },
                at=now,
            )
            for bucket in shard.rollup.drain_updates():
                data = bucket_document(bucket, shard.rollup.interval_s)
                data["network"] = batch.network_id
                self.stream.publish(topic, "rollup-update", data, at=now)
            raised, cleared = shard.alerts.observe(
                now, (shard.tile.node_delta(batch.node),)
            )
            for alert in raised:
                data = alert.to_json_dict()
                data["network"] = batch.network_id
                self.stream.publish(topic, "alert-raised", data, at=now)
            for alert in cleared:
                data = alert.to_json_dict()
                data["network"] = batch.network_id
                data["cleared_at"] = now
                self.stream.publish(topic, "alert-cleared", data, at=now)
            tile = materialized_tile(
                shard, now, report_interval_s=self.report_interval_s
            )
            self.stream.publish(topic, "fleet-tile", tile, at=now)
            self.stream.publish(FLEET_TOPIC, "fleet-tile", tile, at=now)
            result = IngestResult(
                ok=True,
                accepted_packets=len(accepted_packets),
                accepted_status=len(accepted_status),
                duplicates=duplicates,
            )
        # The store flush can hit sqlite; keep it outside the critical
        # section (RL101) — stores serialise their own writes.
        store.maybe_flush()
        return result

    def flush(self) -> None:
        """Force any buffered store writes out (shutdown, test barriers)."""
        for shard in self.registry:
            shard.store.flush()

    def close(self) -> None:
        """Orderly shutdown: stop transports, flush, close every shard.

        The server owns the stores it creates, so closing the server
        closes them; store closes are idempotent, so an injected store
        may safely be closed again by its creator.
        """
        with self._lock:
            transports = list(self._transports)
        # Stop transports *outside* the lock: a receiver thread may be
        # blocked in submit() waiting for it, and stop() joins that
        # thread (RL101's deadlock shape).
        for transport in transports:
            transport.stop()
        self.flush()
        # Close the hub after the transports stop so the last deltas
        # reach subscribers, and before the stores go away.
        self.stream.close()
        self.registry.close()

    def __enter__(self) -> "MonitorServer":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- documents -----------------------------------------------------------

    @property
    def stats(self) -> ServerStats:
        """Snapshot of the wire counters, derived from :attr:`self_metrics`."""
        with self._lock:
            metrics = self.self_metrics
            return ServerStats(
                batches_ok=metrics.batches_ingested,
                batches_rejected=metrics.decode_failures,
                records_accepted=metrics.records_ingested,
                duplicates=metrics.dedup_hits,
                bytes_received=metrics.bytes_received,
            )

    def self_metrics_document(self) -> Dict[str, Any]:
        """The ``GET /api/v1/server`` body: self-metrics + wire stats.

        The flush keys (``store_flushes``, ``flush_latency_*_ms`` and the
        ``store`` object, present when a store keeps flush counters) all
        come from one read of the registry's flush ledger.
        """
        flushes = self.registry.flush_totals()
        ledger = flushes if flushes is not None else FlushStats()
        with self._lock:
            document = self.self_metrics.to_json_dict()
            document.update(
                {
                    "store_flushes": ledger.flushes,
                    "flush_latency_last_ms": ledger.last_latency_s * 1000.0,
                    "flush_latency_max_ms": ledger.max_latency_s * 1000.0,
                    "flush_latency_total_ms": ledger.total_latency_s * 1000.0,
                }
            )
            transports = list(self._transports)
            alerts_emitted = 0
            alerts_history_len = 0
            alerts_active = 0
            for shard in self.registry:
                alerts_emitted += shard.alerts.alerts_emitted
                alerts_history_len += shard.alerts.history_len
                alerts_active += len(shard.alerts.active())
            document.update(
                {
                    "networks": len(self.registry),
                    "network_evictions": self.registry.evictions,
                    # Shard alert engines (the O(delta) observe path);
                    # history is a bounded ring, so emitted >= history.
                    "alerts_emitted": alerts_emitted,
                    "alerts_history_len": alerts_history_len,
                    "alerts_active": alerts_active,
                    "alert_sweeps": self.alert_sweeps,
                }
            )
        # Transports lock themselves; collecting their documents outside
        # the server lock keeps the lock order server-independent.
        document["transports"] = {
            transport.name: transport.stats_document() for transport in transports
        }
        # Same shape for the hub: it locks itself, and collecting the
        # stream document outside the server lock keeps the sanctioned
        # server -> hub order one-directional.
        document["stream"] = self.stream.stats_document()
        if flushes is not None:
            document["store"] = {
                "flushes": flushes.flushes,
                "records_flushed": flushes.records_flushed,
                "flush_latency_last_ms": flushes.last_latency_s * 1000.0,
                "flush_latency_max_ms": flushes.max_latency_s * 1000.0,
            }
        return document

    def active_alerts(self, network_id: str) -> List[Dict[str, Any]]:
        """``network_id``'s active alerts, oldest first, as JSON objects:
        the one alert state every view reads.  Creates no shard."""
        with self._lock:
            shard = self.registry.get(network_id)
            if shard is None:
                return []
            return [alert.to_json_dict() for alert in shard.alerts.active()]

    def network_document(self, network_id: str) -> Optional[Dict[str, Any]]:
        """Per-network ingest counters, or None for an unknown network."""
        with self._lock:
            shard = self.registry.get(network_id)
            if shard is None:
                return None
            return shard.to_json_dict()
