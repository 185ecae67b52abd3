"""SQLite-backed metrics store.

A drop-in alternative to the in-memory :class:`~repro.monitor.storage.MetricsStore`
for monitoring servers that must survive restarts or hold more telemetry
than fits in RAM.  Implements the same query interface, so the metric
aggregations, the dashboard and the HTTP API work unchanged on top of it.

Uses only the standard library ``sqlite3`` module.  Pass ``":memory:"``
(the default) for an ephemeral database or a file path for persistence.

Write path
----------

Writes are buffered and flushed with ``executemany`` in one
transaction.  A write never flushes: the server writes with
``MonitorServer._lock`` held and then calls
:meth:`SqliteMetricsStore.maybe_flush` after releasing it, so the
``executemany`` and the commit run outside the server's lock.  A
replayed ``(node, seq)`` finds the row it replaces among the buffered
rows, which are indexed by key, and only when none is buffered runs one
``SELECT``.  Batch notes are buffered with the records, so only a flush
writes to the connection.  A flush takes the pending rows out under a
small buffer lock, which writers hold only to append or look up a row,
and writes them under a flush lock that serialises flushes; rows
buffered meanwhile go out with the next flush.  Two knobs say when
``maybe_flush`` flushes: ``flush_records`` (this many records are
pending; 1 commits after every batch that carries records) and
``flush_interval_s`` (the oldest pending row is this old).  Reads always
see buffered writes — every query method flushes first, waiting for a
running flush to commit — so batching never changes query results, only
durability latency.  File stores always run in WAL mode with
``synchronous=NORMAL``, so a flush is one cheap WAL append instead of
two fsyncs.  ``flush()`` forces the buffer out; ``close()`` flushes and
then closes the connection.

View aggregate
--------------

Like the in-memory store, the SQLite store keeps a
:class:`~repro.monitor.aggregate.ViewAggregate` of what a page view
reads, so a view never queries the packet table.  Packet-record writes
feed it, a write that replaces a stored ``(node, seq)`` row takes the
replaced record out again, and opening a file that already holds
records seeds it with one pass over the table.

The aggregate also holds each node's latest state — the nodes, each
node's status record of highest seq, its last batch time and reported
drops — which the status and batch-note writes feed and opening a file
seeds.  A view therefore runs no query and no flush: it reads memory
under the aggregate's lock, is one snapshot of the store, and holds no
lock across disk I/O.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.monitor.aggregate import ViewAggregate
from repro.monitor.records import (
    DIRECTIONS,
    Direction,
    NeighborObservation,
    PacketRecord,
    StatusRecord,
)
from repro.monitor.storage import FlushStats, NodeReads

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
_BATCH_UPSERT = (
    "INSERT INTO batches (node, last_seen, dropped) VALUES (?,?,?) "
    "ON CONFLICT(node) DO UPDATE SET last_seen=excluded.last_seen, "
    "dropped=MAX(batches.dropped, excluded.dropped)"
)


def _packet_row(record: PacketRecord) -> Tuple:
    (
        node, seq, timestamp, direction, src, dst, next_hop, prev_hop,
        ptype, packet_id, size_bytes, rssi_dbm, snr_db, airtime_s, attempt,
    ) = record
    return (
        node, seq, timestamp, "in" if direction is Direction.IN else "out",
        src, dst, next_hop, prev_hop, ptype, packet_id, size_bytes,
        rssi_dbm, snr_db, airtime_s, attempt,
    )


def _status_row(record: StatusRecord) -> Tuple:
    # The neighbours as the wire writes them.
    neighbors_json = "[%s]" % ",".join(map(NeighborObservation.to_json_text, record.neighbors))
    return (
        record.node, record.seq, record.timestamp, record.uptime_s,
        record.queue_depth, record.route_count, record.neighbor_count,
        record.battery_v, record.tx_frames, record.tx_airtime_s,
        record.retransmissions, record.drops, record.duty_utilisation,
        record.originated, record.delivered, record.forwarded,
        neighbors_json,
    )


class SqliteMetricsStore(NodeReads):
    """Metrics store persisted in SQLite.

    API-compatible with :class:`~repro.monitor.storage.MetricsStore`.
    Unlike the in-memory store there is no retention bound; ``evictions``
    is always 0.  Writes only buffer: a caller that writes without going
    through :class:`~repro.monitor.server.MonitorServer` calls
    :meth:`maybe_flush` after its writes, or the buffer grows until the
    next read, :meth:`flush` or :meth:`close`.

    Args:
        path: ``":memory:"`` (ephemeral) or a file path (durable).
        flush_records: :meth:`maybe_flush` flushes the write buffer once
            this many records are pending (the high-throughput knob; 1
            effectively disables batching).
        flush_interval_s: it also flushes when the oldest buffered row
            has been pending this long, bounding staleness under light
            load for writers that call it.  ``None`` disables the age
            trigger.
        clock: time source for the age trigger (monotonic seconds);
            injectable for tests and simulations.
    """

    def __init__(
        self,
        path: str = ":memory:",
        flush_records: int = 1000,
        flush_interval_s: Optional[float] = 1.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if flush_records < 1:
            raise StorageError(f"flush_records must be >= 1, got {flush_records}")
        if flush_interval_s is not None and flush_interval_s <= 0:
            raise StorageError(
                f"flush_interval_s must be > 0 or None, got {flush_interval_s}"
            )
        self._conn = sqlite3.connect(path, check_same_thread=False)
        if path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA temp_store=MEMORY")
        self._conn.execute("PRAGMA cache_size=-8192")  # 8 MiB page cache
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self._flush_records = flush_records
        self._flush_interval = flush_interval_s
        self._clock = clock or time.monotonic
        #: Rows waiting for the next flush.  Writers append under
        #: ``_buffer_lock`` (a leaf lock) and a flush swaps them out
        #: under it, so a row buffered while a flush writes goes out
        #: with the next one.
        self._buffer_lock = threading.Lock()
        self._packet_buffer: List[Tuple] = []  # guarded-by: _buffer_lock
        self._status_buffer: List[Tuple] = []  # guarded-by: _buffer_lock
        self._batch_buffer: List[Tuple] = []  # guarded-by: _buffer_lock
        #: The buffered packet rows by (node, seq), and those a running
        #: flush is writing: a replayed seq finds the row it replaces
        #: here, or else in the table, without a flush.
        self._pending_rows: Dict[Tuple[int, int], Tuple] = {}  # guarded-by: _buffer_lock
        self._flushing_rows: Dict[Tuple[int, int], Tuple] = {}  # guarded-by: _buffer_lock
        self._oldest_pending_at: Optional[float] = None  # guarded-by: _buffer_lock
        #: Serialises flushes: two cannot interleave, and a read that
        #: flushed under it sees every row buffered before it.  Lock
        #: order: the aggregate's lock, ``_flush_lock``, ``_buffer_lock``;
        #: a flush never takes the aggregate's lock, so a read made
        #: under it may wait for a flush.
        self._flush_lock = threading.Lock()
        self._closed = False
        self.flush_stats = FlushStats()
        #: What a page view reads and each node's latest state, kept at
        #: write time and seeded here from what a reopened file holds.
        self.aggregate = ViewAggregate()
        #: Highest stored seq per node: a record above it replaces no row.
        self._highest_seq: Dict[int, int] = dict(
            self._conn.execute(
                "SELECT node, MAX(seq) FROM packet_records GROUP BY node"
            ).fetchall()
        )
        cursor = self._conn.execute("SELECT * FROM packet_records")
        while True:
            rows = cursor.fetchmany(10_000)
            if not rows:
                break
            self.aggregate.add_records([self._packet_from_row(row) for row in rows])
        self.aggregate.add_status_records([
            self._status_from_row(row) for row in self._conn.execute(
                "SELECT s.* FROM status_records AS s JOIN (SELECT node, MAX(seq) AS seq "
                "FROM status_records GROUP BY node) AS m ON s.node = m.node AND s.seq = m.seq"
            )
        ])
        for node, last_seen, dropped in self._conn.execute(
            "SELECT node, last_seen, dropped FROM batches"
        ):
            self.aggregate.note_batch(node, last_seen, dropped)

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
        with self._buffer_lock:
            return len(self._packet_buffer) + len(self._status_buffer)

    def add_packet_record(self, record: PacketRecord) -> None:
        self.add_packet_records((record,))

    def add_packet_records(self, records: Iterable[PacketRecord]) -> None:
        """Buffer many packet records at once (the server's batch path).

        A record whose ``(node, seq)`` is already stored replaces that
        row, so the replaced record leaves the aggregate.  A record
        above its node's highest seq replaces nothing; only a lower one
        (a client replaying into a reopened store, say) costs a lookup,
        which reads the buffer or the table and does not flush.
        """
        fresh: List[PacketRecord] = []
        for record in records:
            highest = self._highest_seq.get(record.node)
            if highest is None or record.seq > highest:
                self._highest_seq[record.node] = record.seq
                fresh.append(record)
                continue
            self._write_packets(fresh)
            fresh = []
            replaced = self._stored_packet(record.node, record.seq)
            self._write_packets([record], replaced)
        self._write_packets(fresh)

    def _write_packets(
        self, records: List[PacketRecord], replaced: Optional[PacketRecord] = None
    ) -> None:
        if not records:
            return
        rows = [_packet_row(record) for record in records]
        with self.aggregate.lock:
            self.aggregate.add_records(records)
            if replaced is not None:
                self.aggregate.remove_records((replaced,))
            self._buffer(packets=rows)

    def _stored_packet(self, node: int, seq: int) -> Optional[PacketRecord]:
        """The packet record stored (or buffered) under ``(node, seq)``.

        A key in neither buffer index was never buffered or was written
        by a flush that has finished, so the table holds it.
        """
        with self._buffer_lock:
            row = self._pending_rows.get((node, seq)) or self._flushing_rows.get((node, seq))
        if row is None:
            row = self._conn.execute(
                "SELECT * FROM packet_records WHERE node = ? AND seq = ?", (node, seq)
            ).fetchone()
        return self._packet_from_row(row) if row else None

    def add_status_record(self, record: StatusRecord) -> None:
        self.add_status_records((record,))

    def add_status_records(self, records: Iterable[StatusRecord]) -> None:
        """Buffer many status records at once (the server's batch path)."""
        records = tuple(records)
        rows = [_status_row(record) for record in records]
        with self.aggregate.lock:
            self.aggregate.add_status_records(records)
            self._buffer(statuses=rows)

    def note_batch(self, node: int, received_at: float, dropped_records: int) -> None:
        with self.aggregate.lock:
            self.aggregate.note_batch(node, received_at, dropped_records)
            self._buffer(notes=((node, received_at, dropped_records),))

    def _buffer(
        self,
        packets: Sequence[Tuple] = (),
        statuses: Sequence[Tuple] = (),
        notes: Sequence[Tuple] = (),
    ) -> None:
        """Queue rows for the next flush and start the age trigger's clock."""
        with self._buffer_lock:
            self._packet_buffer.extend(packets)
            pending = self._pending_rows
            for row in packets:
                pending[row[0], row[1]] = row
            self._status_buffer.extend(statuses)
            self._batch_buffer.extend(notes)
            if self._oldest_pending_at is None:
                self._oldest_pending_at = self._clock()

    def maybe_flush(self) -> bool:
        """Flush only when a size/age threshold is due.

        Writes never flush: the server calls this once per ingested
        batch, after it releases its lock, so the ``executemany`` and the
        commit run outside the server's lock.  Returns True when a write
        to SQLite happened.
        """
        with self._buffer_lock:
            oldest = self._oldest_pending_at
        if self.pending_records >= self._flush_records or (
            self._flush_interval is not None
            and oldest is not None
            and self._clock() - oldest >= self._flush_interval
        ):
            return self.flush()
        return False

    def flush(self) -> bool:
        """Write all buffered rows via ``executemany`` and commit.

        Waits for a running flush to finish first.  Returns True when
        any record was pending.  If SQLite fails, the transaction is
        rolled back and the rows go back to the buffer.
        """
        with self._flush_lock:
            with self._buffer_lock:
                packets, self._packet_buffer = self._packet_buffer, []
                statuses, self._status_buffer = self._status_buffer, []
                notes, self._batch_buffer = self._batch_buffer, []
                self._flushing_rows, self._pending_rows = self._pending_rows, {}
                oldest, self._oldest_pending_at = self._oldest_pending_at, None
            started = time.perf_counter()
            try:
                if packets:
                    self._conn.executemany(_PACKET_INSERT, packets)  # reprolint: allow[RL101] -- _flush_lock exists to serialise this I/O; writers never take it
                if statuses:
                    self._conn.executemany(_STATUS_INSERT, statuses)  # reprolint: allow[RL101] -- _flush_lock exists to serialise this I/O; writers never take it
                if notes:
                    self._conn.executemany(_BATCH_UPSERT, notes)  # reprolint: allow[RL101] -- _flush_lock exists to serialise this I/O; writers never take it
                self._conn.commit()  # reprolint: allow[RL101] -- _flush_lock exists to serialise this I/O; writers never take it
            except sqlite3.Error as exc:
                if packets or statuses or notes:
                    self._conn.rollback()
                with self._buffer_lock:
                    self._packet_buffer[:0] = packets
                    self._status_buffer[:0] = statuses
                    self._batch_buffer[:0] = notes
                    self._pending_rows = {**self._flushing_rows, **self._pending_rows}
                    self._flushing_rows = {}
                    if oldest is not None:
                        self._oldest_pending_at = oldest
                raise StorageError(f"sqlite batch insert failed: {exc}") from exc
            with self._buffer_lock:
                self._flushing_rows = {}
            pending = len(packets) + len(statuses)
            if pending:
                self.flush_stats.note(pending, time.perf_counter() - started)
            return bool(pending)

    def journal_mode(self) -> str:
        """The active SQLite journal mode (``wal`` for file stores)."""
        return self._conn.execute("PRAGMA journal_mode").fetchone()[0]

    # -- reads ----------------------------------------------------------------

    def _read_ready(self) -> None:
        """Make buffered writes visible before any query (read-your-writes).

        Flushing also waits for a running flush, so rows another thread
        took out of the buffer are committed before the query runs.
        """
        self.flush()

    def _packet_from_row(self, row: Tuple) -> PacketRecord:
        (node, seq, ts, direction, src, dst, next_hop, prev_hop,
         ptype, packet_id, size_bytes, rssi, snr, airtime, attempt) = row
        return PacketRecord(
            node, seq, ts, DIRECTIONS[direction], src, dst, next_hop, prev_hop,
            ptype, packet_id, size_bytes, rssi, snr, airtime, attempt,
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
            node, seq, ts, uptime_s, queue_depth, route_count, neighbor_count,
            battery_v, tx_frames, tx_airtime_s, retransmissions, drops, duty,
            originated, delivered, forwarded, neighbors,
        )

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
