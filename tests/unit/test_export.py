"""Unit tests for telemetry export/import."""

import csv
import hashlib
import random

import pytest

from repro.errors import DecodeError
from repro.monitor.export import (
    export_jsonl,
    export_packet_records_csv,
    export_status_records_csv,
    import_jsonl,
)
from repro.monitor.records import Direction, NeighborObservation, PacketRecord, StatusRecord
from repro.monitor.storage import MetricsStore


@pytest.fixture
def store():
    store = MetricsStore()
    for seq in range(5):
        store.add_packet_record(PacketRecord(
            node=1, seq=seq, timestamp=float(seq), direction=Direction.IN,
            src=2, dst=1, next_hop=1, prev_hop=2, ptype=3, packet_id=seq,
            size_bytes=40, rssi_dbm=-100.0 - seq, snr_db=5.0,
        ))
    store.add_status_record(StatusRecord(
        node=1, seq=0, timestamp=10.0, uptime_s=10.0, queue_depth=1,
        route_count=3, neighbor_count=1, battery_v=3.8, tx_frames=5,
        tx_airtime_s=0.5, retransmissions=0, drops=0, duty_utilisation=0.02,
        originated=2, delivered=1, forwarded=0,
        neighbors=(NeighborObservation(2, -101.0, 4.5, 5),),
    ))
    return store


def seeded_store(seed=11, n_packets=300, n_nodes=6):
    """A store of full-precision records, as a client captures them."""
    rng = random.Random(seed)
    store = MetricsStore()
    for seq in range(n_packets):
        incoming = rng.random() < 0.7
        store.add_packet_record(PacketRecord(
            node=rng.randrange(1, n_nodes + 1), seq=seq, timestamp=rng.uniform(0.0, 7200.0),
            direction=Direction.IN if incoming else Direction.OUT,
            src=rng.randrange(1, n_nodes + 1), dst=rng.randrange(1, n_nodes + 1),
            next_hop=rng.randrange(1, n_nodes + 1), prev_hop=rng.randrange(1, n_nodes + 1),
            ptype=rng.randrange(0, 7), packet_id=rng.randrange(0, 1 << 16),
            size_bytes=rng.randrange(12, 255),
            rssi_dbm=rng.uniform(-135.0, -60.0) if incoming else None,
            snr_db=rng.uniform(-20.0, 12.0) if incoming else None,
            airtime_s=None if incoming else rng.uniform(0.02, 1.5),
            attempt=1 if incoming else rng.randrange(1, 4),
        ))
    for node in range(1, n_nodes + 1):
        for seq in range(3):
            store.add_status_record(StatusRecord(
                node=node, seq=seq, timestamp=60.0 * (seq + 1) + rng.random(),
                uptime_s=rng.uniform(0.0, 1e5), queue_depth=rng.randrange(0, 8),
                route_count=rng.randrange(0, 20), neighbor_count=rng.randrange(0, 6),
                battery_v=rng.uniform(3.3, 4.2), tx_frames=rng.randrange(0, 5000),
                tx_airtime_s=rng.uniform(0.0, 300.0), retransmissions=rng.randrange(0, 50),
                drops=rng.randrange(0, 10), duty_utilisation=rng.uniform(0.0, 1.0),
                originated=rng.randrange(0, 500), delivered=rng.randrange(0, 500),
                forwarded=rng.randrange(0, 500),
                neighbors=tuple(
                    NeighborObservation(
                        rng.randrange(1, n_nodes + 1), rng.uniform(-135.0, -60.0),
                        rng.uniform(-20.0, 12.0), rng.randrange(0, 1000),
                    )
                    for _ in range(rng.randrange(0, 5))
                ),
            ))
    return store


#: SHA-256 of ``export_jsonl(seeded_store())`` as written by ``json.dumps``
#: of each record's ``to_json_dict`` with compact separators.
SEEDED_JSONL_SHA256 = "215b199f94ad156b50ab78f75f5a9e0da5645c0c6061e9a17c245f63989e0797"


class TestJsonlBytes:
    def test_seeded_export_is_byte_identical(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        assert export_jsonl(seeded_store(), path) == 318
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SEEDED_JSONL_SHA256

    def test_each_line_is_the_wire_text(self, tmp_path):
        store = seeded_store()
        path = tmp_path / "dump.jsonl"
        export_jsonl(store, path)
        expected = [record.to_json_text() for record in store.packet_records()]
        expected += [
            record.to_json_text() for node in store.nodes() for record in store.status_records(node)
        ]
        assert path.read_text().splitlines() == expected

    def test_seeded_export_reimports(self, tmp_path):
        path, again = tmp_path / "dump.jsonl", tmp_path / "again.jsonl"
        export_jsonl(seeded_store(), path)
        rebuilt = import_jsonl(path)
        assert rebuilt.packet_record_count() == 300
        assert rebuilt.status_record_count() == 18
        # The export is at the wire's precision, so a second pass is exact.
        export_jsonl(rebuilt, again)
        assert again.read_bytes() == path.read_bytes()


class TestCsvExport:
    def test_packet_csv_rows(self, store, tmp_path):
        path = tmp_path / "packets.csv"
        written = export_packet_records_csv(store, path)
        assert written == 5
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5
        assert rows[0]["node"] == "1"
        assert rows[0]["rssi"] == "-100.0"

    def test_status_csv_rows(self, store, tmp_path):
        path = tmp_path / "status.csv"
        written = export_status_records_csv(store, path)
        assert written == 1
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["battery_v"] == "3.8"
        assert "neighbors" not in rows[0]


class TestJsonlRoundTrip:
    def test_export_import_preserves_counts(self, store, tmp_path):
        path = tmp_path / "dump.jsonl"
        written = export_jsonl(store, path)
        assert written == 6
        rebuilt = import_jsonl(path)
        assert rebuilt.packet_record_count() == 5
        assert rebuilt.status_record_count() == 1
        original = list(store.packet_records())
        restored = list(rebuilt.packet_records())
        assert [r.seq for r in restored] == [r.seq for r in original]
        assert restored[0].rssi_dbm == pytest.approx(original[0].rssi_dbm, abs=0.1)

    def test_import_preserves_neighbor_lists(self, store, tmp_path):
        path = tmp_path / "dump.jsonl"
        export_jsonl(store, path)
        rebuilt = import_jsonl(path)
        status = rebuilt.latest_status(1)
        assert len(status.neighbors) == 1
        assert status.neighbors[0].address == 2

    def test_import_into_existing_store(self, store, tmp_path):
        path = tmp_path / "dump.jsonl"
        export_jsonl(store, path)
        target = MetricsStore()
        result = import_jsonl(path, store=target)
        assert result is target
        assert target.packet_record_count() == 5

    def test_import_into_sqlite_flushes_as_it_goes(self, store, tmp_path):
        from repro.monitor.sqlitestore import SqliteMetricsStore
        path = tmp_path / "dump.jsonl"
        export_jsonl(store, path)
        with SqliteMetricsStore(flush_records=2, flush_interval_s=None) as target:
            import_jsonl(path, store=target)
            assert target.flush_stats.flushes == 3
            assert target.pending_records == 0
            assert target.packet_record_count() == 5

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "packet"\n')
        with pytest.raises(DecodeError):
            import_jsonl(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(DecodeError):
            import_jsonl(path)

    def test_blank_lines_skipped(self, store, tmp_path):
        path = tmp_path / "dump.jsonl"
        export_jsonl(store, path)
        content = path.read_text()
        path.write_text("\n" + content + "\n\n")
        rebuilt = import_jsonl(path)
        assert rebuilt.packet_record_count() == 5
