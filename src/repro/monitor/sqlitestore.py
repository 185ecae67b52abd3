"""SQLite-backed metrics store.

A drop-in alternative to the in-memory :class:`~repro.monitor.storage.MetricsStore`
for monitoring servers that must survive restarts or hold more telemetry
than fits in RAM.  Implements the same query interface, so the metric
aggregations, the dashboard and the HTTP API work unchanged on top of it.

Uses only the standard library ``sqlite3`` module.  Pass ``":memory:"``
(the default) for an ephemeral database or a file path for persistence.

Write path
----------

Writes are buffered and flushed with ``executemany`` in one transaction,
which is the difference between a few thousand and a few hundred thousand
records per second on a file-backed store (measured by
``benchmarks/bench_f9_server_throughput.py``).  Two knobs bound the
buffer: ``flush_records`` (flush when this many records are pending) and
``flush_interval_s`` (flush when the oldest pending record is this old).
Reads always see buffered writes — every query method flushes first — so
batching never changes query results, only durability latency.  File
stores run in WAL mode with ``synchronous=NORMAL`` so a flush is one
cheap WAL append instead of two fsyncs.  ``flush()`` forces the buffer
out; ``close()`` flushes and then closes the connection.  Pass
``batch_writes=False`` to get the historical row-at-a-time behaviour
(one ``execute`` per record, committed by :meth:`flush`) — kept as the
benchmark baseline.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import StorageError
from repro.monitor.records import (
    Direction,
    NeighborObservation,
    PacketRecord,
    StatusRecord,
)
from repro.monitor.storage import FlushStats

_SCHEMA = """
CREATE TABLE IF NOT EXISTS packet_records (
    node INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    ts REAL NOT NULL,
    direction TEXT NOT NULL,
    src INTEGER NOT NULL,
    dst INTEGER NOT NULL,
    next_hop INTEGER NOT NULL,
    prev_hop INTEGER NOT NULL,
    ptype INTEGER NOT NULL,
    packet_id INTEGER NOT NULL,
    size_bytes INTEGER NOT NULL,
    rssi REAL,
    snr REAL,
    airtime REAL,
    attempt INTEGER NOT NULL,
    PRIMARY KEY (node, seq)
);
CREATE INDEX IF NOT EXISTS idx_packet_ts ON packet_records (ts);
CREATE INDEX IF NOT EXISTS idx_packet_src ON packet_records (src);

CREATE TABLE IF NOT EXISTS status_records (
    node INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    ts REAL NOT NULL,
    uptime_s REAL NOT NULL,
    queue_depth INTEGER NOT NULL,
    route_count INTEGER NOT NULL,
    neighbor_count INTEGER NOT NULL,
    battery_v REAL NOT NULL,
    tx_frames INTEGER NOT NULL,
    tx_airtime_s REAL NOT NULL,
    retransmissions INTEGER NOT NULL,
    drops INTEGER NOT NULL,
    duty REAL NOT NULL,
    originated INTEGER NOT NULL,
    delivered INTEGER NOT NULL,
    forwarded INTEGER NOT NULL,
    neighbors_json TEXT NOT NULL,
    PRIMARY KEY (node, seq)
);
CREATE INDEX IF NOT EXISTS idx_status_ts ON status_records (node, ts);

CREATE TABLE IF NOT EXISTS batches (
    node INTEGER PRIMARY KEY,
    last_seen REAL NOT NULL,
    dropped INTEGER NOT NULL
);
"""


_PACKET_INSERT = (
    "INSERT OR REPLACE INTO packet_records VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)"
)
_STATUS_INSERT = (
    "INSERT OR REPLACE INTO status_records VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)"
)


def _packet_row(record: PacketRecord) -> Tuple:
    return (
        record.node, record.seq, record.timestamp, record.direction.value,
        record.src, record.dst, record.next_hop, record.prev_hop,
        record.ptype, record.packet_id, record.size_bytes,
        record.rssi_dbm, record.snr_db, record.airtime_s, record.attempt,
    )


def _status_row(record: StatusRecord) -> Tuple:
    neighbors_json = json.dumps([n.to_json_dict() for n in record.neighbors])
    return (
        record.node, record.seq, record.timestamp, record.uptime_s,
        record.queue_depth, record.route_count, record.neighbor_count,
        record.battery_v, record.tx_frames, record.tx_airtime_s,
        record.retransmissions, record.drops, record.duty_utilisation,
        record.originated, record.delivered, record.forwarded,
        neighbors_json,
    )


class SqliteMetricsStore:
    """Metrics store persisted in SQLite.

    API-compatible with :class:`~repro.monitor.storage.MetricsStore`.
    Unlike the in-memory store there is no retention bound; ``evictions``
    is always 0.

    Args:
        path: ``":memory:"`` (ephemeral) or a file path (durable).
        flush_records: flush the write buffer once this many records are
            pending (the high-throughput knob; 1 effectively disables
            batching).
        flush_interval_s: also flush when the oldest buffered record has
            been pending this long, bounding staleness under light load.
            ``None`` disables the age trigger.
        batch_writes: ``False`` restores the historical row-at-a-time
            path (one ``execute`` per record); used as the benchmark
            baseline and for callers that need per-record durability.
        wal: use WAL journal mode + ``synchronous=NORMAL`` on file-backed
            stores.  Ignored for ``":memory:"``.
        clock: time source for the age trigger (monotonic seconds);
            injectable for tests and simulations.
    """

    def __init__(
        self,
        path: str = ":memory:",
        flush_records: int = 1000,
        flush_interval_s: Optional[float] = 1.0,
        batch_writes: bool = True,
        wal: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if flush_records < 1:
            raise StorageError(f"flush_records must be >= 1, got {flush_records}")
        if flush_interval_s is not None and flush_interval_s <= 0:
            raise StorageError(
                f"flush_interval_s must be > 0 or None, got {flush_interval_s}"
            )
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._file_backed = path != ":memory:"
        if self._file_backed and wal:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA temp_store=MEMORY")
        self._conn.execute("PRAGMA cache_size=-8192")  # 8 MiB page cache
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self._flush_records = flush_records
        self._flush_interval = flush_interval_s
        self._batch_writes = batch_writes
        self._clock = clock or time.monotonic
        self._packet_buffer: List[Tuple] = []
        self._status_buffer: List[Tuple] = []
        self._oldest_pending_at: Optional[float] = None
        self._closed = False
        self.flush_stats = FlushStats()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Flush any buffered writes, then close the connection.

        Idempotent: a second close (e.g. an owner's ``close()`` after a
        ``with`` block already exited) is a no-op.
        """
        if self._closed:
            return
        self.flush()
        self._conn.close()
        self._closed = True

    def __enter__(self) -> "SqliteMetricsStore":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- writes ---------------------------------------------------------------

    @property
    def pending_records(self) -> int:
        """Records buffered but not yet written to SQLite."""
        return len(self._packet_buffer) + len(self._status_buffer)

    def add_packet_record(self, record: PacketRecord) -> None:
        if not self._batch_writes:
            try:
                self._conn.execute(_PACKET_INSERT, _packet_row(record))
            except sqlite3.Error as exc:
                raise StorageError(f"sqlite insert failed: {exc}") from exc
            return
        self._packet_buffer.append(_packet_row(record))
        self._note_pending()
        self._flush_if_due()

    def add_packet_records(self, records: Iterable[PacketRecord]) -> None:
        """Buffer many packet records at once (the server's batch path)."""
        if not self._batch_writes:
            for record in records:
                self.add_packet_record(record)
            return
        self._packet_buffer.extend(_packet_row(record) for record in records)
        self._note_pending()
        self._flush_if_due()

    def add_status_record(self, record: StatusRecord) -> None:
        if not self._batch_writes:
            try:
                self._conn.execute(_STATUS_INSERT, _status_row(record))
            except sqlite3.Error as exc:
                raise StorageError(f"sqlite insert failed: {exc}") from exc
            return
        self._status_buffer.append(_status_row(record))
        self._note_pending()
        self._flush_if_due()

    def add_status_records(self, records: Iterable[StatusRecord]) -> None:
        """Buffer many status records at once (the server's batch path)."""
        if not self._batch_writes:
            for record in records:
                self.add_status_record(record)
            return
        self._status_buffer.extend(_status_row(record) for record in records)
        self._note_pending()
        self._flush_if_due()

    def note_batch(self, node: int, received_at: float, dropped_records: int) -> None:
        self._conn.execute(
            "INSERT INTO batches (node, last_seen, dropped) VALUES (?,?,?) "
            "ON CONFLICT(node) DO UPDATE SET last_seen=excluded.last_seen, "
            "dropped=batches.dropped+excluded.dropped",
            (node, received_at, dropped_records),
        )

    def _note_pending(self) -> None:
        if self._oldest_pending_at is None:
            self._oldest_pending_at = self._clock()

    def _flush_if_due(self) -> None:
        if self.pending_records >= self._flush_records:
            self.flush()
        elif (
            self._flush_interval is not None
            and self._oldest_pending_at is not None
            and self._clock() - self._oldest_pending_at >= self._flush_interval
        ):
            self.flush()

    def maybe_flush(self) -> bool:
        """Flush only when a size/age threshold is due.

        The server calls this once per ingested batch; with
        ``batch_writes=False`` it degenerates to a plain commit (the
        historical once-per-batch durability).
        Returns True when a write to SQLite happened.
        """
        if not self._batch_writes:
            self._conn.commit()
            return True
        before = self.flush_stats.flushes
        self._flush_if_due()
        return self.flush_stats.flushes != before

    def flush(self) -> bool:
        """Write all buffered records via ``executemany`` and commit.

        Returns True when anything was pending.
        """
        pending = self.pending_records
        if not pending:
            self._conn.commit()  # cover note_batch-only writes
            return False
        started = time.perf_counter()
        try:
            if self._packet_buffer:
                self._conn.executemany(_PACKET_INSERT, self._packet_buffer)
            if self._status_buffer:
                self._conn.executemany(_STATUS_INSERT, self._status_buffer)
            self._conn.commit()
        except sqlite3.Error as exc:
            raise StorageError(f"sqlite batch insert failed: {exc}") from exc
        self._packet_buffer.clear()
        self._status_buffer.clear()
        self._oldest_pending_at = None
        self.flush_stats.note(pending, time.perf_counter() - started)
        return True

    def journal_mode(self) -> str:
        """The active SQLite journal mode (``wal`` for tuned file stores)."""
        return self._conn.execute("PRAGMA journal_mode").fetchone()[0]

    # -- reads ----------------------------------------------------------------

    def _read_ready(self) -> None:
        """Make buffered writes visible before any query (read-your-writes)."""
        if self.pending_records:
            self.flush()

    def _packet_from_row(self, row: Tuple) -> PacketRecord:
        (node, seq, ts, direction, src, dst, next_hop, prev_hop,
         ptype, packet_id, size_bytes, rssi, snr, airtime, attempt) = row
        return PacketRecord(
            node=node, seq=seq, timestamp=ts, direction=Direction(direction),
            src=src, dst=dst, next_hop=next_hop, prev_hop=prev_hop,
            ptype=ptype, packet_id=packet_id, size_bytes=size_bytes,
            rssi_dbm=rssi, snr_db=snr, airtime_s=airtime, attempt=attempt,
        )

    def _status_from_row(self, row: Tuple) -> StatusRecord:
        (node, seq, ts, uptime_s, queue_depth, route_count, neighbor_count,
         battery_v, tx_frames, tx_airtime_s, retransmissions, drops, duty,
         originated, delivered, forwarded, neighbors_json) = row
        neighbors = tuple(
            NeighborObservation.from_json_dict(item)
            for item in json.loads(neighbors_json)
        )
        return StatusRecord(
            node=node, seq=seq, timestamp=ts, uptime_s=uptime_s,
            queue_depth=queue_depth, route_count=route_count,
            neighbor_count=neighbor_count, battery_v=battery_v,
            tx_frames=tx_frames, tx_airtime_s=tx_airtime_s,
            retransmissions=retransmissions, drops=drops, duty_utilisation=duty,
            originated=originated, delivered=delivered, forwarded=forwarded,
            neighbors=neighbors,
        )

    def nodes(self) -> List[int]:
        self._read_ready()
        rows = self._conn.execute(
            "SELECT node FROM packet_records UNION SELECT node FROM status_records "
            "UNION SELECT node FROM batches ORDER BY 1"
        ).fetchall()
        return [row[0] for row in rows]

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
        clauses = []
        params: List = []
        for column, value in (
            ("node", node), ("ptype", ptype), ("src", src), ("dst", dst),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if direction is not None:
            clauses.append("direction = ?")
            params.append(direction.value)
        if since is not None:
            clauses.append("ts >= ?")
            params.append(since)
        if until is not None:
            clauses.append("ts <= ?")
            params.append(until)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        self._read_ready()
        cursor = self._conn.execute(
            f"SELECT * FROM packet_records{where} ORDER BY node, seq", params
        )
        for row in cursor:
            yield self._packet_from_row(row)

    def status_records(
        self,
        node: int,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Iterator[StatusRecord]:
        clauses = ["node = ?"]
        params: List = [node]
        if since is not None:
            clauses.append("ts >= ?")
            params.append(since)
        if until is not None:
            clauses.append("ts <= ?")
            params.append(until)
        self._read_ready()
        cursor = self._conn.execute(
            f"SELECT * FROM status_records WHERE {' AND '.join(clauses)} ORDER BY seq",
            params,
        )
        for row in cursor:
            yield self._status_from_row(row)

    def latest_status(self, node: int) -> Optional[StatusRecord]:
        self._read_ready()
        row = self._conn.execute(
            "SELECT * FROM status_records WHERE node = ? ORDER BY seq DESC LIMIT 1",
            (node,),
        ).fetchone()
        return self._status_from_row(row) if row else None

    def status_series(
        self,
        node: int,
        fields: List[str],
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[Dict[str, float]]:
        series = []
        for record in self.status_records(node, since=since, until=until):
            point: Dict[str, float] = {"ts": record.timestamp}
            for name in fields:
                if not hasattr(record, name):
                    raise StorageError(f"unknown status field {name!r}")
                point[name] = float(getattr(record, name))
            series.append(point)
        return series

    def last_seen(self, node: int) -> Optional[float]:
        row = self._conn.execute(
            "SELECT last_seen FROM batches WHERE node = ?", (node,)
        ).fetchone()
        return row[0] if row else None

    def reported_drops(self, node: int) -> int:
        row = self._conn.execute(
            "SELECT dropped FROM batches WHERE node = ?", (node,)
        ).fetchone()
        return row[0] if row else 0

    def packet_record_count(self, node: Optional[int] = None) -> int:
        self._read_ready()
        if node is not None:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM packet_records WHERE node = ?", (node,)
            ).fetchone()
        else:
            row = self._conn.execute("SELECT COUNT(*) FROM packet_records").fetchone()
        return row[0]

    def status_record_count(self, node: Optional[int] = None) -> int:
        self._read_ready()
        if node is not None:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM status_records WHERE node = ?", (node,)
            ).fetchone()
        else:
            row = self._conn.execute("SELECT COUNT(*) FROM status_records").fetchone()
        return row[0]

    @property
    def evictions(self) -> int:
        return 0

    def time_bounds(self) -> Optional[tuple]:
        self._read_ready()
        row = self._conn.execute(
            "SELECT MIN(ts), MAX(ts) FROM packet_records"
        ).fetchone()
        if row is None or row[0] is None:
            return None
        return (row[0], row[1])


def sqlite_store_factory(
    directory: str,
    flush_records: int = 1000,
    flush_interval_s: Optional[float] = 1.0,
    clock: Optional[Callable[[], float]] = None,
) -> Callable[[str], SqliteMetricsStore]:
    """Per-network durable store factory for a multi-tenant server.

    Returns a callable suitable for ``MonitorServer(store_factory=...)``
    (and :class:`~repro.monitor.registry.NetworkRegistry`): each newly
    seen network gets its own SQLite file ``<directory>/<network>.sqlite``,
    so tenants never share a database and an evicted shard's file simply
    waits on disk for the network to report again.

    Network ids are pre-validated (``[A-Za-z0-9][A-Za-z0-9_.-]*``), so
    they are safe as file names.
    """

    def factory(network_id: str) -> SqliteMetricsStore:
        return SqliteMetricsStore(  # reprolint: allow[RL006] -- the registry owns shard stores; close() flushes and closes every one
            path=os.path.join(directory, f"{network_id}.sqlite"),
            flush_records=flush_records,
            flush_interval_s=flush_interval_s,
            clock=clock,
        )

    return factory
