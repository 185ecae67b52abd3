"""Server-side metrics store.

Holds every accepted packet and status record, indexed per observer node,
with bounded retention.  Query methods are the substrate for the metric
aggregations, the dashboard and the HTTP API.  A multi-tenant server
holds one store per network (see :mod:`repro.monitor.registry`); a store
never contains records from more than one network.

The store is deliberately schema-first rather than a generic TSDB: the
record types are fixed, so queries can expose exactly the filters the
dashboard needs (observer, direction, packet type, time window, src/dst).

The write API mirrors :class:`~repro.monitor.sqlitestore.SqliteMetricsStore`
— single-record adds, batch adds (``add_packet_records`` /
``add_status_records``), ``maybe_flush()``/``flush()``/``close()`` and
``flush_stats`` — so the two backends stay drop-in interchangeable for
the server's batched ingestion path.  For the in-memory store the
flushes and close are no-ops (writes are immediately visible and nothing
needs closing) and ``flush_stats`` is None.

Both stores keep a :class:`~repro.monitor.aggregate.ViewAggregate` of
what a page view reads.  Every write runs under its lock and feeds it;
a packet record the retention bound drops is subtracted from it again.
The aggregate is also the one holder of each node's latest state: both
stores answer ``nodes``, ``latest_status`` (the node's status record of
highest seq), ``last_seen`` and ``reported_drops`` from it through
:class:`NodeReads`, and a page view reads them under the aggregate's
lock.  Reads iterate a copy of a node's records (one C-level
``tuple()``), so a scan or a history query running beside ingest never
sees a deque change under it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Deque, Dict, Iterable, Iterator, List, Optional

from repro.errors import StorageError
from repro.monitor.aggregate import ViewAggregate
from repro.monitor.records import Direction, PacketRecord, StatusRecord


@dataclass
class FlushStats:
    """Counters for the buffered write path ("monitor the monitor")."""

    flushes: int = 0
    records_flushed: int = 0
    last_latency_s: float = 0.0
    max_latency_s: float = 0.0
    total_latency_s: float = 0.0

    def note(self, records: int, latency_s: float) -> None:
        self.flushes += 1
        self.records_flushed += records
        self.last_latency_s = latency_s
        self.max_latency_s = max(self.max_latency_s, latency_s)
        self.total_latency_s += latency_s

    def add(self, other: "FlushStats") -> None:
        """Fold ``other`` in: counts and total latency sum, the worst
        latency is the maximum, and the last latency is ``other``'s."""
        self.flushes += other.flushes
        self.records_flushed += other.records_flushed
        self.last_latency_s = other.last_latency_s
        self.max_latency_s = max(self.max_latency_s, other.max_latency_s)
        self.total_latency_s += other.total_latency_s


class NodeReads:
    """The per-node reads both stores answer the same way.

    A store sets :attr:`aggregate` and defines ``status_records``; the
    node state comes from the aggregate, each read one dictionary
    lookup.
    """

    aggregate: ViewAggregate

    def status_records(
        self,
        node: int,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Iterator[StatusRecord]:
        """One node's status records; each store defines it."""
        raise NotImplementedError

    def nodes(self) -> List[int]:
        """All node addresses that ever reported anything, sorted."""
        with self.aggregate.lock:
            return sorted(self.aggregate.nodes)

    def latest_status(self, node: int) -> Optional[StatusRecord]:
        """The node's status record of highest seq."""
        state = self.aggregate.nodes.get(node)
        return None if state is None else state.status

    def last_seen(self, node: int) -> Optional[float]:
        """Server receive time of the node's most recent batch."""
        state = self.aggregate.nodes.get(node)
        return None if state is None else state.last_seen

    def reported_drops(self, node: int) -> int:
        """The highest cumulative buffer-overflow count ``node``'s client reported."""
        state = self.aggregate.nodes.get(node)
        return 0 if state is None else state.drops

    def status_series(
        self,
        node: int,
        fields: List[str],
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[Dict[str, float]]:
        """Extract a time series of status fields for plotting.

        Raises:
            StorageError: when a requested field does not exist.
        """
        series = []
        for record in self.status_records(node, since=since, until=until):
            point: Dict[str, float] = {"ts": record.timestamp}
            for name in fields:
                if name not in StatusRecord._fields:
                    raise StorageError(f"unknown status field {name!r}")
                point[name] = float(getattr(record, name))
            series.append(point)
        return series


class MetricsStore(NodeReads):
    """In-memory time-series store for telemetry records."""

    #: Writes are never buffered, so there are no flushes to count.
    flush_stats: Optional[FlushStats] = None

    def __init__(self, max_packet_records_per_node: int = 200_000, max_status_records_per_node: int = 20_000) -> None:
        if max_packet_records_per_node < 1 or max_status_records_per_node < 1:
            raise StorageError("retention bounds must be >= 1")
        self._packet_by_node: Dict[int, Deque[PacketRecord]] = {}
        self._status_by_node: Dict[int, Deque[StatusRecord]] = {}
        self._max_packets = max_packet_records_per_node
        self._max_status = max_status_records_per_node
        self._packet_evictions = 0
        #: What a page view reads, kept at write time.
        self.aggregate = ViewAggregate()

    # -- writes ---------------------------------------------------------------

    def add_packet_record(self, record: PacketRecord) -> None:
        self.add_packet_records((record,))

    def add_status_record(self, record: StatusRecord) -> None:
        self.add_status_records((record,))

    def add_packet_records(self, records: Iterable[PacketRecord]) -> None:
        """Add many packet records (batch mirror of the SQLite store).

        A record that pushes a node past its retention bound drops that
        node's oldest record, which leaves the aggregate too.  The
        aggregate counts the records before the deques take them: if it
        fails on one, none of the batch is stored.
        """
        records = tuple(records)
        evicted: List[PacketRecord] = []
        with self.aggregate.lock:
            # Added before removed: an evicted record may be one of ``records``.
            self.aggregate.add_records(records)
            for record in records:
                bucket = self._packet_by_node.get(record.node)
                if bucket is None:
                    bucket = deque(maxlen=self._max_packets)
                    self._packet_by_node[record.node] = bucket
                if len(bucket) == self._max_packets:
                    evicted.append(bucket[0])
                bucket.append(record)
            self._packet_evictions += len(evicted)
            if evicted:
                self.aggregate.remove_records(evicted)

    def add_status_records(self, records: Iterable[StatusRecord]) -> None:
        """Add many status records (batch mirror of the SQLite store)."""
        records = tuple(records)
        with self.aggregate.lock:
            self.aggregate.add_status_records(records)
            for record in records:
                bucket = self._status_by_node.get(record.node)
                if bucket is None:
                    bucket = deque(maxlen=self._max_status)
                    self._status_by_node[record.node] = bucket
                bucket.append(record)

    def flush(self) -> bool:
        """No-op (in-memory writes are immediately visible); returns False."""
        return False

    def maybe_flush(self) -> bool:
        """No-op, for API parity with the SQLite store; returns False."""
        return False

    def close(self) -> None:
        """No-op, for API parity with the SQLite store."""

    def __enter__(self) -> "MetricsStore":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def note_batch(self, node: int, received_at: float, dropped_records: int) -> None:
        """Record batch-level metadata (liveness, and the client's
        cumulative drop count, of which the store keeps the highest)."""
        self.aggregate.note_batch(node, received_at, dropped_records)

    # -- reads ----------------------------------------------------------------

    def packet_records(
        self,
        node: Optional[int] = None,
        direction: Optional[Direction] = None,
        ptype: Optional[int] = None,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Iterator[PacketRecord]:
        """Iterate packet records matching all given filters."""
        if node is not None:
            buckets = [self._packet_by_node.get(node, deque())]
        else:
            buckets = [self._packet_by_node[key] for key in sorted(self._packet_by_node)]
        for bucket in buckets:
            for record in tuple(bucket):
                if direction is not None and record.direction != direction:
                    continue
                if ptype is not None and record.ptype != ptype:
                    continue
                if src is not None and record.src != src:
                    continue
                if dst is not None and record.dst != dst:
                    continue
                if since is not None and record.timestamp < since:
                    continue
                if until is not None and record.timestamp > until:
                    continue
                yield record

    def status_records(
        self,
        node: int,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Iterator[StatusRecord]:
        """Iterate one node's status records in seq order (time order), as SQLite does."""
        for record in sorted(tuple(self._status_by_node.get(node, ())), key=attrgetter("seq")):
            if since is not None and record.timestamp < since:
                continue
            if until is not None and record.timestamp > until:
                continue
            yield record

    def packet_record_count(self, node: Optional[int] = None) -> int:
        if node is not None:
            return len(self._packet_by_node.get(node, ()))
        return sum(len(bucket) for bucket in tuple(self._packet_by_node.values()))

    def status_record_count(self, node: Optional[int] = None) -> int:
        if node is not None:
            return len(self._status_by_node.get(node, ()))
        return sum(len(bucket) for bucket in tuple(self._status_by_node.values()))

    @property
    def evictions(self) -> int:
        """Packet records discarded due to the retention bound."""
        return self._packet_evictions

    def time_bounds(self) -> Optional[tuple]:
        """(earliest, latest) packet-record timestamp, or None when empty."""
        earliest: Optional[float] = None
        latest: Optional[float] = None
        for bucket in tuple(self._packet_by_node.values()):
            if not bucket:
                continue
            if earliest is None or bucket[0].timestamp < earliest:
                earliest = bucket[0].timestamp
            if latest is None or bucket[-1].timestamp > latest:
                latest = bucket[-1].timestamp
        if earliest is None or latest is None:
            return None
        return (earliest, latest)
