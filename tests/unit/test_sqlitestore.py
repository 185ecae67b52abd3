"""Unit tests for the SQLite-backed metrics store.

The store must be a drop-in for the in-memory one, so these tests mirror
the MetricsStore behaviour and additionally check persistence and that the
metric aggregations run unchanged on top of it.
"""

import pytest

from repro.monitor import metrics
from repro.monitor.aggregate import ViewAggregate
from repro.monitor.records import Direction, NeighborObservation, PacketRecord, StatusRecord
from repro.monitor.server import MonitorServer
from repro.monitor.sqlitestore import SqliteMetricsStore


def packet_record(node=1, seq=0, ts=0.0, direction=Direction.IN, src=2, dst=1, ptype=3):
    return PacketRecord(
        node=node, seq=seq, timestamp=ts, direction=direction,
        src=src, dst=dst, next_hop=node, prev_hop=src, ptype=ptype, packet_id=seq,
        size_bytes=40,
        rssi_dbm=-105.0 if direction is Direction.IN else None,
        snr_db=4.0 if direction is Direction.IN else None,
        airtime_s=0.05 if direction is Direction.OUT else None,
    )


def status_record(node=1, seq=0, ts=0.0):
    return StatusRecord(
        node=node, seq=seq, timestamp=ts, uptime_s=ts, queue_depth=2,
        route_count=3, neighbor_count=1, battery_v=3.8, tx_frames=10,
        tx_airtime_s=1.0, retransmissions=1, drops=0, duty_utilisation=0.05,
        originated=4, delivered=2, forwarded=1,
        neighbors=(NeighborObservation(2, -101.0, 4.5, 7),),
    )


@pytest.fixture
def store():
    store = SqliteMetricsStore()
    yield store
    store.close()


class TestBasics:
    def test_round_trip_packet_record(self, store):
        original = packet_record()
        store.add_packet_record(original)
        restored = list(store.packet_records())
        assert len(restored) == 1
        assert restored[0] == original

    def test_round_trip_status_record(self, store):
        original = status_record()
        store.add_status_record(original)
        restored = store.latest_status(1)
        assert restored == original

    def test_filters(self, store):
        store.add_packet_record(packet_record(seq=0, direction=Direction.IN, ts=1.0))
        store.add_packet_record(packet_record(seq=1, direction=Direction.OUT, ts=5.0))
        store.add_packet_record(packet_record(node=2, seq=0, src=3, ts=9.0))
        assert len(list(store.packet_records(direction=Direction.OUT))) == 1
        assert len(list(store.packet_records(node=1))) == 2
        assert len(list(store.packet_records(since=2.0, until=6.0))) == 1
        assert len(list(store.packet_records(src=3))) == 1

    def test_counts_and_nodes(self, store):
        store.add_packet_record(packet_record(node=1))
        store.add_status_record(status_record(node=5))
        store.note_batch(9, received_at=1.0, dropped_records=2)
        assert store.nodes() == [1, 5, 9]
        assert store.packet_record_count() == 1
        assert store.packet_record_count(node=2) == 0
        assert store.status_record_count(node=5) == 1

    def test_batch_metadata(self, store):
        store.note_batch(1, received_at=10.0, dropped_records=3)
        store.note_batch(1, received_at=20.0, dropped_records=4)
        assert store.last_seen(1) == 20.0
        assert store.reported_drops(1) == 7
        assert store.last_seen(99) is None

    def test_status_series(self, store):
        for seq in range(3):
            store.add_status_record(status_record(seq=seq, ts=seq * 60.0))
        series = store.status_series(1, ["queue_depth"], since=30.0)
        assert len(series) == 2
        assert series[0]["queue_depth"] == 2.0

    def test_time_bounds(self, store):
        assert store.time_bounds() is None
        store.add_packet_record(packet_record(seq=0, ts=2.0))
        store.add_packet_record(packet_record(seq=1, ts=9.0))
        assert store.time_bounds() == (2.0, 9.0)

    def test_duplicate_primary_key_replaces(self, store):
        store.add_packet_record(packet_record(seq=0, ts=1.0))
        store.add_packet_record(packet_record(seq=0, ts=2.0))
        records = list(store.packet_records())
        assert len(records) == 1
        assert records[0].timestamp == 2.0


class TestPersistence:
    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "telemetry.db")
        store = SqliteMetricsStore(path)
        store.add_packet_record(packet_record())
        store.add_status_record(status_record())
        store.flush()
        store.close()

        reopened = SqliteMetricsStore(path)
        assert reopened.packet_record_count() == 1
        assert reopened.latest_status(1) is not None
        reopened.close()


class CountingConnection:
    """Stands in for a store's sqlite3 connection and counts every use."""

    def __init__(self, connection):
        self.connection = connection
        self.uses = []

    def __getattr__(self, name):
        self.uses.append(name)
        return getattr(self.connection, name)


class TestNodeStateInMemory:
    """A view reads node state from memory: no query, no flush."""

    def fill(self, store):
        store.add_packet_records([packet_record(seq=0, ts=1.0), packet_record(node=2, seq=0)])
        store.add_status_records([status_record(seq=5, ts=5.0), status_record(seq=3, ts=3.0)])
        store.add_status_record(status_record(node=3, seq=0, ts=2.0))
        store.note_batch(1, 10.0, 2)
        store.note_batch(1, 12.0, 1)
        store.note_batch(4, 11.0, 0)

    def node_state(self, store):
        return [
            (node, store.latest_status(node), store.last_seen(node), store.reported_drops(node))
            for node in store.nodes()
        ]

    def test_a_view_runs_no_query_and_no_flush(self):
        from repro.monitor.dashboard import Dashboard

        store = SqliteMetricsStore(flush_records=10_000, flush_interval_s=None)
        self.fill(store)
        pending = store.pending_records
        assert pending > 0
        connection, store._conn = store._conn, CountingConnection(store._conn)
        document = Dashboard(store).to_json_dict(20.0)
        assert store._conn.uses == []
        assert store.pending_records == pending
        assert [row["node"] for row in document["nodes"]] == [1, 2, 3, 4]
        store._conn = connection
        store.close()

    def test_node_state_matches_the_tables_and_survives_reopen(self, tmp_path):
        path = str(tmp_path / "telemetry.db")
        store = SqliteMetricsStore(path)
        self.fill(store)
        before = self.node_state(store)
        assert [node for node, *_ in before] == [1, 2, 3, 4]
        assert before[0][1:] == (status_record(seq=5, ts=5.0), 12.0, 3)
        assert before[3][1:] == (None, 11.0, 0)
        store.close()
        reopened = SqliteMetricsStore(path)
        assert self.node_state(reopened) == before
        # The tables agree with the mirror.
        assert [row[0] for row in reopened._conn.execute(
            "SELECT node FROM packet_records UNION SELECT node FROM status_records "
            "UNION SELECT node FROM batches ORDER BY 1"
        )] == [1, 2, 3, 4]
        reopened.close()

    def test_row_at_a_time_mode_keeps_the_mirror_too(self):
        store = SqliteMetricsStore(batch_writes=False)
        self.fill(store)
        assert self.node_state(store)[0][1:] == (status_record(seq=5, ts=5.0), 12.0, 3)
        store.close()


class ReplayingConnection:
    """Stands in for a store's connection; the first ``executemany``
    first runs ``replay``, as another writer would while a flush runs."""

    def __init__(self, connection, replay):
        self.connection = connection
        self.replay = replay

    def __getattr__(self, name):
        return getattr(self.connection, name)

    def executemany(self, sql, rows):
        replay, self.replay = self.replay, None
        if replay is not None:
            replay()
        return self.connection.executemany(sql, rows)


class TestReplacedRowLookup:
    """A replayed seq finds the row it replaces without flushing."""

    def links_recomputed(self, store):
        aggregate = ViewAggregate()
        aggregate.add_records(list(store.packet_records()))
        return aggregate.links()

    def test_row_in_the_buffer(self):
        store = SqliteMetricsStore(flush_records=1000, flush_interval_s=None)
        store.add_packet_records([packet_record(seq=seq, ts=1.0) for seq in range(3)])
        store.add_packet_record(packet_record(seq=1, ts=2.0))
        assert store.flush_stats.flushes == 0
        assert store.pending_records == 4
        assert store.aggregate.links()[0][2] == 3
        assert store.aggregate.links() == self.links_recomputed(store)
        store.close()

    def test_row_a_running_flush_is_writing(self):
        store = SqliteMetricsStore(flush_records=1000, flush_interval_s=None)
        store.add_packet_records([packet_record(seq=seq, ts=1.0) for seq in range(3)])
        connection = store._conn
        store._conn = ReplayingConnection(
            connection, lambda: store.add_packet_record(packet_record(seq=1, ts=5.0))
        )
        assert store.flush() is True
        store._conn = connection
        # The replay landed in the buffer and replaced the row in flight.
        assert store.pending_records == 1
        assert store.aggregate.links()[0][2] == 3
        assert store.aggregate.links() == self.links_recomputed(store)
        assert [r.timestamp for r in store.packet_records()] == [1.0, 5.0, 1.0]
        store.close()


class TestDropInCompatibility:
    def test_server_ingests_into_sqlite(self, store):
        from repro.monitor.records import RecordBatch
        server = MonitorServer(store=store)
        batch = RecordBatch(
            node=1, batch_seq=0, sent_at=0.0,
            packet_records=(packet_record(),), status_records=(status_record(),),
        )
        result = server.submit(batch)
        assert result.ok and result.accepted_packets == 1
        assert store.packet_record_count() == 1

    def test_metrics_run_on_sqlite(self, store):
        store.add_packet_record(packet_record(
            node=2, seq=0, direction=Direction.OUT, src=2, dst=1,
        ))
        store.add_packet_record(packet_record(
            node=1, seq=0, direction=Direction.IN, src=2, dst=1,
        ))
        pairs = metrics.pdr_matrix(store)
        assert pairs[(2, 1)].pdr == pytest.approx(1.0)
        links = metrics.link_quality(store)
        assert (2, 1) in links

    def test_dashboard_renders_on_sqlite(self, store):
        from repro.monitor.dashboard import Dashboard
        store.add_status_record(status_record())
        store.note_batch(1, received_at=0.0, dropped_records=0)
        dashboard = Dashboard(store)
        text = dashboard.render_text(now=10.0)
        assert "[nodes]" in text


class TestBatchedWrites:
    """The buffered executemany write path (the high-throughput knob)."""

    def test_batch_adds_visible_to_reads(self, store):
        store.add_packet_records([packet_record(seq=seq) for seq in range(10)])
        store.add_status_records([status_record(seq=seq) for seq in range(3)])
        # No explicit flush: reads must see buffered writes.
        assert store.packet_record_count() == 10
        assert store.status_record_count() == 3

    def test_flush_threshold_by_size(self):
        store = SqliteMetricsStore(flush_records=5, flush_interval_s=None)
        store.add_packet_records([packet_record(seq=seq) for seq in range(4)])
        assert store.maybe_flush() is False
        assert store.pending_records == 4
        assert store.flush_stats.flushes == 0
        store.add_packet_record(packet_record(seq=4))
        assert store.maybe_flush() is True
        assert store.pending_records == 0
        assert store.flush_stats.flushes == 1
        assert store.flush_stats.records_flushed == 5
        store.close()

    def test_flush_threshold_by_age(self):
        clock = [0.0]
        store = SqliteMetricsStore(
            flush_records=1000, flush_interval_s=2.0, clock=lambda: clock[0],
        )
        store.add_packet_record(packet_record(seq=0))
        assert store.maybe_flush() is False
        assert store.pending_records == 1
        clock[0] = 3.0
        store.add_packet_record(packet_record(seq=1))
        assert store.maybe_flush() is True
        assert store.pending_records == 0  # age trigger fired
        store.close()

    def test_maybe_flush_only_when_due(self):
        store = SqliteMetricsStore(flush_records=100, flush_interval_s=None)
        store.add_packet_record(packet_record(seq=0))
        assert store.maybe_flush() is False
        assert store.pending_records == 1
        store.add_packet_records([packet_record(seq=seq) for seq in range(1, 100)])
        assert store.pending_records == 100  # a write never flushes
        assert store.maybe_flush() is True
        assert store.pending_records == 0
        store.close()

    def test_explicit_flush(self, store):
        store.add_packet_record(packet_record())
        assert store.flush() is True
        assert store.pending_records == 0
        assert store.flush() is False  # nothing pending

    def test_failed_flush_keeps_its_rows(self):
        # The commit fails after every row went out: the flush rolls
        # back and rebuffers, so the retry applies the batch note once.
        import sqlite3

        from repro.errors import StorageError

        class FailingCommit:
            def __init__(self, connection):
                self.connection = connection

            def __getattr__(self, name):
                return getattr(self.connection, name)

            def commit(self):
                raise sqlite3.OperationalError("disk I/O error")

        store = SqliteMetricsStore(flush_records=1000, flush_interval_s=None)
        store.add_packet_records([packet_record(seq=seq) for seq in range(3)])
        store.note_batch(1, 10.0, 2)
        connection = store._conn
        store._conn = FailingCommit(connection)
        with pytest.raises(StorageError):
            store.flush()
        store._conn = connection
        assert store.pending_records == 3
        store.add_packet_record(packet_record(seq=1, ts=5.0))
        assert store.aggregate.links()[0][2] == 3
        assert store.flush() is True
        assert [r.timestamp for r in store.packet_records()] == [0.0, 5.0, 0.0]
        assert connection.execute("SELECT dropped FROM batches").fetchall() == [(2,)]
        store.close()

    def test_row_at_a_time_mode_bypasses_buffer(self):
        store = SqliteMetricsStore(batch_writes=False)
        store.add_packet_records([packet_record(seq=0), packet_record(seq=1)])
        assert store.pending_records == 0
        assert store.packet_record_count() == 2
        store.close()

    def test_duplicate_in_one_buffer_last_wins(self, store):
        store.add_packet_records([
            packet_record(seq=0, ts=1.0), packet_record(seq=0, ts=2.0),
        ])
        records = list(store.packet_records())
        assert len(records) == 1 and records[0].timestamp == 2.0

    def test_invalid_flush_config_rejected(self):
        from repro.errors import StorageError
        with pytest.raises(StorageError):
            SqliteMetricsStore(flush_records=0)
        with pytest.raises(StorageError):
            SqliteMetricsStore(flush_interval_s=0.0)


class TestPragmasAndDurability:
    def test_wal_mode_on_file_backed_store(self, tmp_path):
        store = SqliteMetricsStore(str(tmp_path / "telemetry.db"))
        assert store.journal_mode() == "wal"
        store.close()

    def test_wal_opt_out(self, tmp_path):
        store = SqliteMetricsStore(str(tmp_path / "telemetry.db"), wal=False)
        assert store.journal_mode() != "wal"
        store.close()

    def test_memory_store_has_no_wal(self):
        store = SqliteMetricsStore()
        assert store.journal_mode() == "memory"
        store.close()

    def test_flush_on_close_persists_buffered_records(self, tmp_path):
        path = str(tmp_path / "telemetry.db")
        store = SqliteMetricsStore(path, flush_records=10_000, flush_interval_s=None)
        store.add_packet_records([packet_record(seq=seq) for seq in range(7)])
        assert store.pending_records == 7
        store.close()  # must flush, not drop, the buffer

        reopened = SqliteMetricsStore(path)
        assert reopened.packet_record_count() == 7
        reopened.close()


class TestLifecycle:
    """Context-manager protocol and idempotent close (reprolint RL006)."""

    def test_context_manager_flushes_and_closes(self, tmp_path):
        path = str(tmp_path / "telemetry.db")
        with SqliteMetricsStore(path, flush_records=10_000, flush_interval_s=None) as store:
            store.add_packet_records([packet_record(seq=seq) for seq in range(3)])
            assert store.pending_records == 3
        with SqliteMetricsStore(path) as reopened:
            assert reopened.packet_record_count() == 3

    def test_close_is_idempotent(self):
        store = SqliteMetricsStore()
        store.close()
        store.close()  # second close must not raise

    def test_close_after_with_block_is_noop(self):
        with SqliteMetricsStore() as store:
            pass
        store.close()
