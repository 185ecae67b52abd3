"""T1 — Monitoring record schema and wire sizes.

Regenerates the table a monitoring-system paper reports first: how many
bytes one packet record, one status record and a typical batch cost in
each wire format (JSON for the out-of-band WiFi/HTTP path the paper uses,
binary for the in-band LoRa path).
"""

from repro.analysis.report import ExperimentReport
from repro.api import BinaryCodec, Direction, PacketRecord, RecordBatch, StatusRecord
from repro.mesh.packet import MAX_PAYLOAD
from repro.mesh.transport import segment_message
from repro.monitor.records import NeighborObservation

from benchmarks.common import emit


def sample_in_record(seq=0):
    return PacketRecord(
        node=7, seq=seq, timestamp=1234.56, direction=Direction.IN,
        src=3, dst=1, next_hop=7, prev_hop=3, ptype=3, packet_id=seq,
        size_bytes=58, rssi_dbm=-112.5, snr_db=4.2,
    )


def sample_out_record(seq=0):
    return PacketRecord(
        node=7, seq=seq, timestamp=1234.78, direction=Direction.OUT,
        src=3, dst=1, next_hop=2, prev_hop=7, ptype=3, packet_id=seq,
        size_bytes=58, airtime_s=0.102, attempt=1,
    )


def sample_status(seq=0):
    return StatusRecord(
        node=7, seq=seq, timestamp=1260.0, uptime_s=86000.0, queue_depth=1,
        route_count=24, neighbor_count=4, battery_v=3.91, tx_frames=1800,
        tx_airtime_s=112.5, retransmissions=40, drops=3, duty_utilisation=0.31,
        originated=300, delivered=12, forwarded=700,
        neighbors=tuple(
            NeighborObservation(address=n, rssi_dbm=-110.0 - n, snr_db=5.0 - n, frames_heard=100 + n)
            for n in (2, 3, 6, 12)
        ),
    )


def typical_batch(n_packets=30):
    records = []
    for seq in range(n_packets):
        maker = sample_in_record if seq % 2 == 0 else sample_out_record
        records.append(maker(seq))
    return RecordBatch(
        node=7, batch_seq=42, sent_at=1260.0,
        packet_records=tuple(records), status_records=(sample_status(),),
    )


def build_report():
    report = ExperimentReport(
        experiment_id="T1",
        title="telemetry record and batch wire sizes",
        expectation=(
            "per-packet records are small (tens of bytes binary, ~200 B "
            "JSON); a one-minute batch fits one HTTP POST; binary is >3x "
            "denser than JSON"
        ),
        headers=["item", "json_bytes", "binary_bytes", "ratio"],
    )
    items = [
        ("packet record (IN)", sample_in_record()),
        ("packet record (OUT)", sample_out_record()),
        ("status record (4 neighbors)", sample_status()),
    ]
    for name, record in items:
        json_size = len(record.to_json_text())
        binary_size = len(record.to_binary())
        report.add_row(name, json_size, binary_size, f"{json_size / binary_size:.1f}x")
    batch = typical_batch()
    raw = BinaryCodec().encode(batch)
    json_size = len(batch.to_json_bytes())
    binary_size = len(raw)
    report.add_row(
        f"batch ({len(batch.packet_records)} pkt + 1 status)",
        json_size, binary_size, f"{json_size / binary_size:.1f}x",
    )
    frames = len(segment_message(0, raw, MAX_PAYLOAD))
    report.add_note(
        f"binary batch of 30 records fits in {frames} LoRa frames at the 255 B MTU"
    )
    return report


def test_t1_record_sizes(benchmark):
    report = build_report()
    emit(report)
    # The benchmarked unit: encoding one full batch both ways.
    batch = typical_batch()
    codec = BinaryCodec()

    def encode_both():
        return len(batch.to_json_bytes()) + len(codec.encode(batch))

    total = benchmark(encode_both)
    assert total > 0
    # Invariants the table relies on.
    assert len(codec.encode(batch)) * 3 < len(batch.to_json_bytes())


if __name__ == "__main__":
    emit(build_report())
