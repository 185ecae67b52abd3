"""Unit tests for the metrics store."""

import pytest

from repro.errors import StorageError
from repro.monitor.records import Direction, PacketRecord, StatusRecord
from repro.monitor.storage import MetricsStore


def packet_record(node=1, seq=0, ts=0.0, direction=Direction.IN, ptype=3, src=1, dst=9):
    return PacketRecord(
        node=node, seq=seq, timestamp=ts, direction=direction,
        src=src, dst=dst, next_hop=5, prev_hop=src, ptype=ptype, packet_id=seq,
        size_bytes=40, rssi_dbm=-110.0, snr_db=2.0,
    )


def status_record(node=1, seq=0, ts=0.0, **overrides):
    fields = dict(
        node=node, seq=seq, timestamp=ts, uptime_s=ts, queue_depth=0,
        route_count=5, neighbor_count=2, battery_v=3.7, tx_frames=10,
        tx_airtime_s=1.0, retransmissions=0, drops=0, duty_utilisation=0.01,
        originated=1, delivered=1, forwarded=0,
    )
    fields.update(overrides)
    return StatusRecord(**fields)


@pytest.fixture
def store():
    return MetricsStore()


class TestWritesAndCounts:
    def test_counts(self, store):
        store.add_packet_record(packet_record(node=1, seq=0))
        store.add_packet_record(packet_record(node=1, seq=1))
        store.add_packet_record(packet_record(node=2, seq=0))
        store.add_status_record(status_record(node=1))
        assert store.packet_record_count() == 3
        assert store.packet_record_count(node=1) == 2
        assert store.status_record_count() == 1

    def test_nodes_union(self, store):
        store.add_packet_record(packet_record(node=1))
        store.add_status_record(status_record(node=5))
        store.note_batch(9, received_at=10.0, dropped_records=0)
        assert store.nodes() == [1, 5, 9]

    def test_retention_evicts_oldest(self):
        store = MetricsStore(max_packet_records_per_node=3)
        for seq in range(5):
            store.add_packet_record(packet_record(seq=seq, ts=float(seq)))
        assert store.packet_record_count(node=1) == 3
        seqs = [r.seq for r in store.packet_records(node=1)]
        assert seqs == [2, 3, 4]
        assert store.evictions == 2

    def test_bad_bounds_rejected(self):
        with pytest.raises(StorageError):
            MetricsStore(max_packet_records_per_node=0)


class TestQueries:
    def test_filter_by_direction_and_type(self, store):
        store.add_packet_record(packet_record(seq=0, direction=Direction.IN, ptype=1))
        store.add_packet_record(packet_record(seq=1, direction=Direction.OUT, ptype=3))
        ins = list(store.packet_records(direction=Direction.IN))
        assert len(ins) == 1 and ins[0].seq == 0
        hellos = list(store.packet_records(ptype=1))
        assert len(hellos) == 1

    def test_filter_by_time_window(self, store):
        for seq, ts in enumerate((1.0, 5.0, 9.0)):
            store.add_packet_record(packet_record(seq=seq, ts=ts))
        window = list(store.packet_records(since=2.0, until=8.0))
        assert [r.seq for r in window] == [1]

    def test_filter_by_src_dst(self, store):
        store.add_packet_record(packet_record(seq=0, src=1, dst=9))
        store.add_packet_record(packet_record(seq=1, src=2, dst=8))
        assert [r.seq for r in store.packet_records(src=2)] == [1]
        assert [r.seq for r in store.packet_records(dst=9)] == [0]

    def test_latest_status(self, store):
        store.add_status_record(status_record(seq=0, ts=0.0))
        store.add_status_record(status_record(seq=1, ts=60.0))
        assert store.latest_status(1).seq == 1
        assert store.latest_status(42) is None

    def test_status_series(self, store):
        for seq in range(3):
            store.add_status_record(status_record(seq=seq, ts=seq * 60.0, queue_depth=seq))
        series = store.status_series(1, ["queue_depth"])
        assert [point["queue_depth"] for point in series] == [0.0, 1.0, 2.0]
        assert [point["ts"] for point in series] == [0.0, 60.0, 120.0]

    def test_status_series_unknown_field(self, store):
        store.add_status_record(status_record())
        with pytest.raises(StorageError):
            store.status_series(1, ["bogus"])

    def test_time_bounds(self, store):
        assert store.time_bounds() is None
        store.add_packet_record(packet_record(seq=0, ts=3.0))
        store.add_packet_record(packet_record(node=2, seq=0, ts=7.0))
        assert store.time_bounds() == (3.0, 7.0)


class TestBatchMetadata:
    def test_last_seen(self, store):
        assert store.last_seen(1) is None
        store.note_batch(1, received_at=100.0, dropped_records=0)
        assert store.last_seen(1) == 100.0

    def test_reported_drops_accumulate(self, store):
        # Each batch carries the client's cumulative count, so a resent
        # (5) or reordered (3) batch does not add to the highest.
        store.note_batch(1, received_at=1.0, dropped_records=5)
        store.note_batch(1, received_at=2.0, dropped_records=5)
        store.note_batch(1, received_at=3.0, dropped_records=3)
        assert store.reported_drops(1) == 5
        store.note_batch(1, received_at=4.0, dropped_records=8)
        assert store.reported_drops(1) == 8
        assert store.reported_drops(2) == 0


class TestBatchApi:
    """The in-memory store mirrors the SQLite store's batch write API."""

    def test_add_packet_records(self, store):
        store.add_packet_records([packet_record(seq=0), packet_record(seq=1)])
        assert store.packet_record_count() == 2

    def test_add_status_records(self, store):
        store.add_status_records([status_record(seq=0), status_record(seq=1)])
        assert store.status_record_count() == 2

    def test_flush_and_close_are_noops(self, store):
        store.add_packet_records([packet_record()])
        assert store.flush() is False  # nothing is ever pending in RAM
        store.close()
        assert store.packet_record_count() == 1


class TestLifecycle:
    """API parity with the SQLite store's context-manager protocol."""

    def test_context_manager(self):
        with MetricsStore() as store:
            store.add_packet_record(packet_record())
            assert store.packet_record_count() == 1
        # close is a no-op: data survives for post-with inspection
        assert store.packet_record_count() == 1

    def test_close_idempotent(self):
        store = MetricsStore()
        store.close()
        store.close()
