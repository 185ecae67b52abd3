"""F9 — Server ingestion throughput and query latency.

Server-side capacity planning: how many records per second the ingestion
path sustains (JSON and binary), how much the SQLite store's batched
``executemany`` write path gains over the historical row-at-a-time path
(WAL + buffered flushes vs one commit per batch), and how long the
dashboard's heaviest queries take over a store holding hundreds of
thousands of records.
"""

import os
import random
import tempfile
import time

from repro.analysis.report import ExperimentReport
from repro.monitor import metrics
from repro.api import (
    Direction,
    MonitorServer,
    PacketRecord,
    RecordBatch,
    SqliteMetricsStore,
    StatusRecord,
)

from benchmarks.common import emit

N_NODES = 25
RECORDS_PER_BATCH = 100
N_BATCHES = 200  # 20k packet records per measurement store

# Storage-path comparison workload: small batches, as a real mesh
# produces (a 60 s report interval yields tens of records per batch) —
# this is where one-commit-per-batch hurts the row-at-a-time path.
SQLITE_RECORDS_PER_BATCH = 25
SQLITE_N_BATCHES = 240


def synthetic_batch(node: int, batch_seq: int, rng: random.Random) -> RecordBatch:
    base_seq = batch_seq * RECORDS_PER_BATCH
    records = []
    for offset in range(RECORDS_PER_BATCH):
        direction = Direction.IN if offset % 2 == 0 else Direction.OUT
        records.append(PacketRecord(
            node=node,
            seq=base_seq + offset,
            timestamp=batch_seq * 60.0 + offset * 0.1,
            direction=direction,
            src=rng.randrange(1, N_NODES + 1),
            dst=1,
            next_hop=rng.randrange(1, N_NODES + 1),
            prev_hop=rng.randrange(1, N_NODES + 1),
            ptype=3,
            packet_id=rng.randrange(0, 1 << 16),
            size_bytes=40,
            rssi_dbm=-100.0 - rng.random() * 20 if direction is Direction.IN else None,
            snr_db=rng.random() * 10 - 5 if direction is Direction.IN else None,
            airtime_s=0.05 if direction is Direction.OUT else None,
        ))
    return RecordBatch(
        node=node, batch_seq=batch_seq, sent_at=batch_seq * 60.0,
        packet_records=tuple(records),
    )


def build_loaded_server():
    rng = random.Random(9)
    server = MonitorServer()
    raw_batches = [
        synthetic_batch(node=(index % N_NODES) + 1, batch_seq=index // N_NODES, rng=rng)
        for index in range(N_BATCHES)
    ]
    for batch in raw_batches:
        server.submit(batch)
    return server


def measure_rates():
    rng = random.Random(10)
    rows = []
    for fmt in ("json", "binary"):
        server = MonitorServer()
        batches = [
            synthetic_batch(node=(index % N_NODES) + 1, batch_seq=index // N_NODES, rng=rng)
            for index in range(60)
        ]
        if fmt == "json":
            raws = [batch.to_json_bytes() for batch in batches]
            ingest = server.ingest_json
        else:
            raws = [batch.to_binary() for batch in batches]
            ingest = server.ingest_binary
        start = time.perf_counter()
        for raw in raws:
            result = ingest(raw)
            assert result.ok
        elapsed = time.perf_counter() - start
        records = len(batches) * RECORDS_PER_BATCH
        rows.append({
            "path": f"ingest_{fmt}",
            "unit": "records/s",
            "value": records / elapsed,
        })

    rows.extend(measure_sqlite_paths())

    server = build_loaded_server()
    store = server.store
    queries = [
        ("pdr_matrix", lambda: metrics.pdr_matrix(store)),
        ("link_quality", lambda: metrics.link_quality(store)),
        ("traffic_matrix", lambda: metrics.traffic_matrix(store)),
        ("delivery_latency", lambda: metrics.delivery_latency(store)),
    ]
    for name, query in queries:
        start = time.perf_counter()
        query()
        elapsed = time.perf_counter() - start
        rows.append({"path": name, "unit": "ms/query", "value": elapsed * 1000})
    rows.append({
        "path": "store_size", "unit": "packet records",
        "value": store.packet_record_count(),
    })
    return rows


def small_batches():
    """The storage-comparison workload: many small batches, one stream."""
    rng = random.Random(14)
    batches = []
    for index in range(SQLITE_N_BATCHES):
        full = synthetic_batch(
            node=(index % N_NODES) + 1, batch_seq=index // N_NODES, rng=rng
        )
        batches.append(RecordBatch(
            node=full.node, batch_seq=full.batch_seq, sent_at=full.sent_at,
            packet_records=full.packet_records[:SQLITE_RECORDS_PER_BATCH],
        ))
    return batches


def measure_sqlite_paths():
    """Batched (WAL + buffered executemany) vs the row-at-a-time seed path.

    Both paths write the identical record stream to a file-backed SQLite
    store; only the write strategy differs.  The row-at-a-time path is
    the pre-batching behaviour: one ``execute`` per record and one commit
    per batch with the default rollback journal.
    """
    batches = small_batches()
    total = sum(batch.record_count for batch in batches)
    with tempfile.TemporaryDirectory(prefix="bench_f9_") as tmp:
        seed_store = SqliteMetricsStore(
            os.path.join(tmp, "row_at_a_time.db"), batch_writes=False, wal=False,
        )
        start = time.perf_counter()
        for batch in batches:
            for record in batch.packet_records:
                seed_store.add_packet_record(record)
            seed_store.flush()
        row_at_a_time = total / (time.perf_counter() - start)
        seed_store.close()

        batched_store = SqliteMetricsStore(os.path.join(tmp, "batched.db"))
        start = time.perf_counter()
        for batch in batches:
            batched_store.add_packet_records(batch.packet_records)
            batched_store.maybe_flush()
        batched_store.flush()
        batched = total / (time.perf_counter() - start)
        assert batched_store.packet_record_count() == total
        batched_store.close()
    return [
        {"path": "sqlite_row_at_a_time", "unit": "records/s", "value": row_at_a_time},
        {"path": "sqlite_batched", "unit": "records/s", "value": batched},
        {"path": "sqlite_batch_speedup", "unit": "x", "value": batched / row_at_a_time},
    ]


def build_report(rows):
    report = ExperimentReport(
        experiment_id="F9",
        title="server ingestion throughput and query latency",
        expectation=(
            "ingestion sustains tens of thousands of records/s on a laptop "
            "(binary faster than JSON); the batched SQLite write path "
            "(WAL + buffered executemany) beats the row-at-a-time path by "
            ">=5x on small batches; dashboard aggregations over a "
            "20k-record store complete in tens of milliseconds"
        ),
        headers=["path", "value", "unit"],
    )
    for row in rows:
        report.add_row(row["path"], f"{row['value']:.1f}", row["unit"])
    return report


def test_f9_server_throughput(benchmark):
    rows = measure_rates()
    emit(build_report(rows))
    by_path = {row["path"]: row["value"] for row in rows}
    assert by_path["ingest_json"] > 5_000
    assert by_path["ingest_binary"] > 5_000
    assert by_path["pdr_matrix"] < 2_000  # ms
    assert by_path["sqlite_batch_speedup"] >= 5.0

    # Benchmark unit: ingesting one 100-record JSON batch into a warm server.
    server = build_loaded_server()
    rng = random.Random(11)
    state = {"seq": 10_000}

    def ingest_one():
        state["seq"] += 1
        raw = synthetic_batch(node=3, batch_seq=state["seq"], rng=rng).to_json_bytes()
        server.ingest_json(raw)

    benchmark(ingest_one)


if __name__ == "__main__":
    emit(build_report(measure_rates()))
