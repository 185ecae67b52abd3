"""Unit tests for the telemetry record schema and wire encodings."""

import json
import math

import pytest

from repro.errors import DecodeError
from repro.monitor.records import (
    PACKET_SIZE,
    Direction,
    NeighborObservation,
    PacketRecord,
    RecordBatch,
    StatusRecord,
)


def packet_record(direction=Direction.IN, **overrides):
    fields = dict(
        node=3,
        seq=42,
        timestamp=123.45,
        direction=direction,
        src=1,
        dst=9,
        next_hop=5,
        prev_hop=1,
        ptype=3,
        packet_id=777,
        size_bytes=58,
    )
    if direction is Direction.IN:
        fields.update(rssi_dbm=-112.3, snr_db=4.7)
    else:
        fields.update(airtime_s=0.056, attempt=2)
    fields.update(overrides)
    return PacketRecord(**fields)


def status_record(**overrides):
    fields = dict(
        node=3,
        seq=7,
        timestamp=300.0,
        uptime_s=280.0,
        queue_depth=2,
        route_count=8,
        neighbor_count=3,
        battery_v=3.87,
        tx_frames=120,
        tx_airtime_s=5.321,
        retransmissions=4,
        drops=1,
        duty_utilisation=0.123,
        originated=15,
        delivered=2,
        forwarded=30,
        neighbors=(
            NeighborObservation(address=2, rssi_dbm=-110.5, snr_db=6.1, frames_heard=42),
            NeighborObservation(address=5, rssi_dbm=-119.2, snr_db=-2.4, frames_heard=17),
        ),
    )
    fields.update(overrides)
    return StatusRecord(**fields)


class TestPacketRecordJson:
    def test_in_record_round_trip(self):
        record = packet_record(Direction.IN)
        decoded = PacketRecord.from_json_dict(record.to_json_dict())
        assert decoded.node == record.node
        assert decoded.direction is Direction.IN
        assert decoded.rssi_dbm == pytest.approx(record.rssi_dbm, abs=0.1)
        assert decoded.airtime_s is None

    def test_out_record_round_trip(self):
        record = packet_record(Direction.OUT)
        decoded = PacketRecord.from_json_dict(record.to_json_dict())
        assert decoded.direction is Direction.OUT
        assert decoded.airtime_s == pytest.approx(0.056, abs=1e-4)
        assert decoded.attempt == 2
        assert decoded.rssi_dbm is None

    def test_in_record_json_omits_airtime(self):
        data = packet_record(Direction.IN).to_json_dict()
        assert "airtime_ms" not in data
        assert "rssi" in data

    def test_bad_json_rejected(self):
        with pytest.raises(DecodeError):
            PacketRecord.from_json_dict({"kind": "packet"})


class TestPacketRecordBinary:
    def test_round_trip(self):
        record = packet_record(Direction.IN)
        decoded = PacketRecord.from_binary(record.to_binary(), node=record.node)
        assert decoded.seq == record.seq
        assert decoded.timestamp == pytest.approx(record.timestamp, abs=0.011)
        assert decoded.rssi_dbm == pytest.approx(record.rssi_dbm, abs=0.051)
        assert decoded.snr_db == pytest.approx(record.snr_db, abs=0.051)

    def test_out_round_trip(self):
        record = packet_record(Direction.OUT)
        decoded = PacketRecord.from_binary(record.to_binary(), node=record.node)
        assert decoded.direction is Direction.OUT
        assert decoded.airtime_s == pytest.approx(0.056, abs=1e-3)
        assert decoded.attempt == 2

    def test_binary_is_fixed_size(self):
        assert len(packet_record().to_binary()) == PACKET_SIZE

    def test_binary_much_smaller_than_json(self):
        record = packet_record()
        import json
        json_size = len(json.dumps(record.to_json_dict()))
        assert PACKET_SIZE < json_size / 3

    def test_truncated_binary_rejected(self):
        with pytest.raises(DecodeError):
            PacketRecord.from_binary(b"\x00" * 5, node=1)


class TestStatusRecord:
    def test_json_round_trip(self):
        record = status_record()
        decoded = StatusRecord.from_json_dict(record.to_json_dict())
        assert decoded.node == record.node
        assert decoded.battery_v == pytest.approx(3.87)
        assert len(decoded.neighbors) == 2
        assert decoded.neighbors[0].address == 2

    def test_binary_round_trip(self):
        record = status_record()
        decoded, consumed = StatusRecord.from_binary_at(record.to_binary(), 0, node=record.node)
        assert consumed == len(record.to_binary())
        assert decoded.queue_depth == 2
        assert decoded.duty_utilisation == pytest.approx(0.123, abs=1e-3)
        assert decoded.neighbors[1].rssi_dbm == pytest.approx(-119.2, abs=0.051)

    def test_binary_without_neighbors(self):
        record = status_record(neighbors=())
        decoded, _ = StatusRecord.from_binary_at(record.to_binary(), 0, node=record.node)
        assert decoded.neighbors == ()

    def test_truncated_neighbor_list_rejected(self):
        raw = status_record().to_binary()
        with pytest.raises(DecodeError):
            StatusRecord.from_binary_at(raw[:-3], 0, node=3)


class TestRecordBatch:
    def make_batch(self):
        return RecordBatch(
            node=3,
            batch_seq=11,
            sent_at=456.7,
            packet_records=(packet_record(Direction.IN), packet_record(Direction.OUT, seq=43)),
            status_records=(status_record(),),
            dropped_records=5,
        )

    def test_json_round_trip(self):
        batch = self.make_batch()
        decoded = RecordBatch.from_json_bytes(batch.to_json_bytes())
        assert decoded.node == 3
        assert decoded.batch_seq == 11
        assert decoded.dropped_records == 5
        assert len(decoded.packet_records) == 2
        assert len(decoded.status_records) == 1

    def test_binary_round_trip(self):
        batch = self.make_batch()
        decoded = RecordBatch.from_binary(batch.to_binary())
        assert decoded.node == 3
        assert len(decoded.packet_records) == 2
        assert decoded.packet_records[1].seq == 43
        assert decoded.status_records[0].route_count == 8

    def test_binary_smaller_than_json(self):
        batch = self.make_batch()
        assert len(batch.to_binary()) < len(batch.to_json_bytes()) / 3

    def test_invalid_json_rejected(self):
        with pytest.raises(DecodeError):
            RecordBatch.from_json_bytes(b"not json")
        with pytest.raises(DecodeError):
            RecordBatch.from_json_bytes(b"[1,2,3]")

    def test_wrong_schema_version_rejected(self):
        import json
        document = json.loads(self.make_batch().to_json_bytes())
        document["v"] = 99
        with pytest.raises(DecodeError):
            RecordBatch.from_json_bytes(json.dumps(document).encode())

    def test_bad_magic_rejected(self):
        raw = bytearray(self.make_batch().to_binary())
        raw[0] ^= 0xFF
        with pytest.raises(DecodeError):
            RecordBatch.from_binary(bytes(raw))

    def test_trailing_bytes_rejected(self):
        raw = self.make_batch().to_binary()
        with pytest.raises(DecodeError):
            RecordBatch.from_binary(raw + b"\x00")

    def test_record_count(self):
        assert self.make_batch().record_count == 3

    def test_empty_batch(self):
        batch = RecordBatch(node=1, batch_seq=0, sent_at=0.0)
        assert RecordBatch.from_binary(batch.to_binary()).record_count == 0
        assert RecordBatch.from_json_bytes(batch.to_json_bytes()).record_count == 0


class TestJsonNumbers:
    """JSON numeric fields must be finite numbers; ``rssi``/``snr`` may be null."""

    @staticmethod
    def document():
        return json.loads(TestRecordBatch().make_batch().to_json_bytes())

    @staticmethod
    def decode(document):
        return RecordBatch.from_json_bytes(json.dumps(document).encode())

    @pytest.mark.parametrize("value", ["loud", "-90", True, [1], {"dbm": 1}, math.inf, math.nan])
    def test_bad_rssi_is_refused(self, value):
        document = self.document()
        document["packets"][0]["rssi"] = value
        with pytest.raises(DecodeError):
            self.decode(document)

    @pytest.mark.parametrize(
        "key", ["node", "seq", "ts", "src", "dst", "ptype", "packet_id", "size", "snr"]
    )
    @pytest.mark.parametrize("value", ["7", math.inf, -math.inf, math.nan, False])
    def test_bad_packet_number_is_refused(self, key, value):
        document = self.document()
        document["packets"][0][key] = value
        with pytest.raises(DecodeError):
            self.decode(document)

    @pytest.mark.parametrize("key", ["airtime_ms", "attempt"])
    def test_bad_out_record_number_is_refused(self, key):
        document = self.document()
        document["packets"][1][key] = "1"
        with pytest.raises(DecodeError):
            self.decode(document)

    @pytest.mark.parametrize("key", ["ts", "uptime_s", "battery_v", "duty", "queue", "retx"])
    def test_bad_status_number_is_refused(self, key):
        document = self.document()
        document["status"][0][key] = math.nan
        with pytest.raises(DecodeError):
            self.decode(document)

    @pytest.mark.parametrize("key", ["addr", "rssi", "snr", "heard"])
    def test_bad_neighbor_number_is_refused(self, key):
        document = self.document()
        document["status"][0]["neighbors"][0][key] = "x"
        with pytest.raises(DecodeError):
            self.decode(document)

    @pytest.mark.parametrize("key", ["sent_at", "node", "batch_seq", "dropped"])
    def test_bad_batch_number_is_refused(self, key):
        document = self.document()
        document[key] = math.inf
        with pytest.raises(DecodeError):
            self.decode(document)

    @pytest.mark.parametrize("key", ["ts", "rssi", "snr", "node", "seq", "packet_id", "size"])
    @pytest.mark.parametrize(
        "value",
        [1e308, -1e308, 1.7e308, 2**53 + 1, -(2**53) - 1, pytest.param(10**400, id="int-1e400")],
    )
    def test_number_beyond_2_53_is_refused(self, key, value):
        # Sums and differences of such values overflow to inf (and
        # float(10**400) raises OverflowError).
        document = self.document()
        document["packets"][0][key] = value
        with pytest.raises(DecodeError):
            self.decode(document)

    @pytest.mark.parametrize("value", [1e308, pytest.param(10**400, id="int-1e400")])
    def test_huge_out_and_status_numbers_are_refused(self, value):
        for path in (("packets", 1, "airtime_ms"), ("packets", 1, "attempt"),
                     ("status", 0, "battery_v"), ("status", 0, "tx_frames")):
            document = self.document()
            section, index, key = path
            document[section][index][key] = value
            with pytest.raises(DecodeError):
                self.decode(document)
        document = self.document()
        document["sent_at"] = value
        with pytest.raises(DecodeError):
            self.decode(document)

    def test_numbers_at_2_53_are_accepted(self):
        document = self.document()
        document["packets"][0].update(ts=-(2**53), rssi=float(2**53), snr=-(2.0**53))
        record = self.decode(document).packet_records[0]
        assert record.timestamp == -(2.0**53) and isinstance(record.timestamp, float)
        assert record.rssi_dbm == 2.0**53 and record.snr_db == -(2.0**53)

    def test_null_rssi_and_integer_numbers_are_accepted(self):
        document = self.document()
        document["packets"][0].update(rssi=None, snr=-3, ts=100)
        record = self.decode(document).packet_records[0]
        assert record.rssi_dbm is None
        assert record.snr_db == -3.0 and isinstance(record.snr_db, float)
        assert record.timestamp == 100.0 and isinstance(record.timestamp, float)
