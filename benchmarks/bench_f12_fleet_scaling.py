"""F12 — Fleet scaling: per-network sharding must not tax ingestion.

The multi-tenant server routes every batch to its network's shard (own
store, dedup windows, counters).  This bench pins the cost of that
routing and records it in ``BENCH_fleet.json`` at the repo root:

1. **Flat sharding cost.**  The same total record volume is ingested
   into 1, 2, 4 and 8 networks; records/s must stay within 40 % of the
   single-network rate (the shard lookup is one ordered-dict hit, the
   per-shard windows do the same work a single-tenant server did).
2. **Fleet overview latency.**  ``fleet_overview`` over 8 populated
   networks — the dashboard landing page — must render in well under a
   second.
3. **Shard creation / eviction.**  First-batch cost for a new network
   (lazy shard creation) and steady-state cost under an LRU cap forcing
   an eviction per new tenant, both as informational context.
4. **Codec table.**  Per-record encode/decode cost and wire size for
   the JSON and binary telemetry codecs; the binary codec must be at
   least 3x cheaper per record (encode+decode) on any host.
5. **Transport table.**  End-to-end ingest rate per codec x transport
   (threaded HTTP with JSON and binary bodies, and the in-process UDP
   datagram path), as informational context.
"""

import json
import random
import time
from pathlib import Path

from repro.analysis.report import ExperimentReport
from repro.api import (
    BinaryCodec,
    Dashboard,
    Direction,
    HttpIngestClient,
    JsonCodec,
    MetricsStore,
    MonitorServer,
    MonitoringHttpServer,
    PacketRecord,
    RecordBatch,
    UdpIngestTransport,
    fleet_overview,
)

from benchmarks.common import BenchReport, check_gates, emit

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_fleet.json"

N_NODES = 25
RECORDS_PER_BATCH = 100
N_BATCHES = 120  # per sweep point: 12k packet records total, every time
FLEET_SIZES = (1, 2, 4, 8)
#: the sharding contract: >= 60 % of the single-network rate at 8 networks
MIN_RELATIVE_RATE = 0.6
#: the codec contract: binary encode+decode >= 3x cheaper than JSON
MIN_CODEC_SPEEDUP = 3.0


def synthetic_batch(node, batch_seq, rng, network_id="default"):
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
        packet_records=tuple(records), network_id=network_id,
    )


def fleet_raws(n_networks, seed=9):
    """The sweep workload: N_BATCHES JSON batches round-robined over
    ``n_networks`` tenants (total volume identical at every sweep point)."""
    rng = random.Random(seed)
    raws = []
    for index in range(N_BATCHES):
        network_id = f"site-{index % n_networks:02d}"
        batch = synthetic_batch(
            node=(index % N_NODES) + 1,
            batch_seq=index // N_NODES,
            rng=rng,
            network_id=network_id,
        )
        raws.append(batch.to_json_bytes())
    return raws


def measure_scaling():
    rates = {}
    for n_networks in FLEET_SIZES:
        raws = fleet_raws(n_networks)
        server = MonitorServer()
        start = time.perf_counter()
        for raw in raws:
            result = server.ingest_json(raw)
            assert result.ok
        elapsed = time.perf_counter() - start
        assert len(server.networks()) == n_networks
        rates[n_networks] = (N_BATCHES * RECORDS_PER_BATCH) / elapsed
    return rates


def measure_overview_latency():
    server = MonitorServer()
    for raw in fleet_raws(8):
        server.ingest_json(raw)
    start = time.perf_counter()
    overview = fleet_overview(server, now=N_BATCHES * 60.0)
    elapsed = time.perf_counter() - start
    assert overview["totals"]["networks"] == 8
    return elapsed * 1000.0


def measure_shard_churn():
    """Per-batch cost when every batch opens a new tenant, without and
    with an LRU cap that evicts an idle shard for each arrival."""
    rng = random.Random(17)
    churn = {}
    for label, max_networks in (("create", None), ("create_evict", 8)):
        server = MonitorServer(max_networks=max_networks)
        raws = [
            synthetic_batch(1, 0, rng, network_id=f"churn-{index:04d}").to_json_bytes()
            for index in range(200)
        ]
        start = time.perf_counter()
        for raw in raws:
            assert server.ingest_json(raw).ok
        elapsed = time.perf_counter() - start
        churn[label] = elapsed / len(raws) * 1e6  # us per batch
    return churn


def measure_codecs(repeats=200):
    """Per-record encode/decode microseconds and wire bytes per codec."""
    rng = random.Random(31)
    batch = synthetic_batch(node=3, batch_seq=1, rng=rng)
    table = {}
    for codec in (JsonCodec(), BinaryCodec()):
        raw = codec.encode(batch)
        start = time.perf_counter()
        for _ in range(repeats):
            codec.encode(batch)
        encode_s = (time.perf_counter() - start) / repeats
        start = time.perf_counter()
        for _ in range(repeats):
            codec.decode(raw)
        decode_s = (time.perf_counter() - start) / repeats
        table[codec.name] = {
            "encode_us_per_record": encode_s / RECORDS_PER_BATCH * 1e6,
            "decode_us_per_record": decode_s / RECORDS_PER_BATCH * 1e6,
            "bytes_per_record": len(raw) / RECORDS_PER_BATCH,
        }
    json_cost = (
        table["json"]["encode_us_per_record"] + table["json"]["decode_us_per_record"]
    )
    binary_cost = (
        table["binary"]["encode_us_per_record"]
        + table["binary"]["decode_us_per_record"]
    )
    table["speedup_binary_vs_json"] = json_cost / binary_cost
    table["size_ratio_json_vs_binary"] = (
        table["json"]["bytes_per_record"] / table["binary"]["bytes_per_record"]
    )
    return table


def transport_raws(codec, n_networks=8, seed=9):
    rng = random.Random(seed)
    raws = []
    for index in range(N_BATCHES):
        batch = synthetic_batch(
            node=(index % N_NODES) + 1,
            batch_seq=index // N_NODES,
            rng=rng,
            network_id=f"site-{index % n_networks:02d}",
        )
        raws.append(codec.encode(batch))
    return raws


def measure_transports():
    """Records/s per codec x transport over the identical 8-network workload."""
    total_records = N_BATCHES * RECORDS_PER_BATCH
    rows = {}

    # Threaded HTTP, both codecs: real sockets, the serve-CLI hot path.
    for codec in (JsonCodec(), BinaryCodec()):
        raws = transport_raws(codec)
        store = MetricsStore()
        server = MonitorServer(store=store)
        http_server = MonitoringHttpServer(
            server, Dashboard(store, report_interval_s=60.0), port=0
        )
        http_server.start()
        try:
            client = HttpIngestClient(http_server.url, codec=codec)
            start = time.perf_counter()
            for index, raw in enumerate(raws):
                client.network_id = f"site-{index % 8:02d}"
                result = client.ingest_encoded(raw, codec)
                assert result.ok
            elapsed = time.perf_counter() - start
        finally:
            http_server.stop()
        rows[f"http+{codec.name}"] = total_records / elapsed

    # UDP datagram path (in-process; the socket adds kernel copies, not
    # decode work, and in-process keeps the bench loss-free).
    raws = transport_raws(BinaryCodec())
    server = MonitorServer()
    udp = UdpIngestTransport(server)
    start = time.perf_counter()
    for raw in raws:
        assert udp.handle_datagram(raw)
    elapsed = time.perf_counter() - start
    rows["udp+binary"] = total_records / elapsed

    return {
        "records_per_s": {name: round(rate, 1) for name, rate in rows.items()},
    }


def collect():
    rates = measure_scaling()
    overview_ms = measure_overview_latency()
    churn = measure_shard_churn()
    codecs = measure_codecs()
    transports = measure_transports()
    return {
        "scaling": {
            "records_per_batch": RECORDS_PER_BATCH,
            "batches": N_BATCHES,
            "records_per_s": {str(n): round(rate, 1) for n, rate in rates.items()},
            "relative_rate_at_8": round(rates[8] / rates[1], 4),
            "min_relative_rate": MIN_RELATIVE_RATE,
        },
        "overview": {
            "networks": 8,
            "fleet_overview_ms": round(overview_ms, 2),
        },
        "shard_churn_us_per_batch": {
            key: round(value, 1) for key, value in churn.items()
        },
        "codecs": {
            name: (
                {key: round(value, 3) for key, value in row.items()}
                if isinstance(row, dict)
                else round(row, 3)
            )
            for name, row in codecs.items()
        },
        "transports": transports,
    }


def _report(results) -> BenchReport:
    return BenchReport(
        bench="F12",
        title="Fleet scaling: sharded ingestion and overview latency",
        results=results,
    )


def build_report(results):
    report = ExperimentReport(
        experiment_id="F12",
        title="fleet scaling: sharded ingestion and overview latency",
        expectation=(
            "ingesting the same record volume into 8 networks sustains "
            ">= 60% of the single-network rate (shard routing is one "
            "dict lookup); the 8-network fleet overview renders in "
            "< 500 ms; lazy shard creation and LRU eviction stay in "
            "the microseconds-per-batch range"
        ),
        headers=["path", "value", "unit"],
    )
    for n, rate in results["scaling"]["records_per_s"].items():
        report.add_row(f"ingest_{n}_networks", f"{rate:.1f}", "records/s")
    report.add_row(
        "relative_rate_at_8", f"{results['scaling']['relative_rate_at_8']:.3f}", "x"
    )
    report.add_row(
        "fleet_overview_8", f"{results['overview']['fleet_overview_ms']:.1f}", "ms"
    )
    for key, value in results["shard_churn_us_per_batch"].items():
        report.add_row(f"shard_{key}", f"{value:.1f}", "us/batch")
    for name in ("json", "binary"):
        row = results["codecs"][name]
        report.add_row(
            f"codec_{name}",
            f"{row['encode_us_per_record']:.2f}+{row['decode_us_per_record']:.2f}",
            "us/record (enc+dec)",
        )
    report.add_row(
        "codec_speedup", f"{results['codecs']['speedup_binary_vs_json']:.2f}", "x"
    )
    for name, rate in results["transports"]["records_per_s"].items():
        report.add_row(f"transport_{name}", f"{rate:.0f}", "records/s")
    return report


def check(results) -> None:
    """The F12 gates, run before the artifact is written."""
    check_gates("F12", {
        f"relative_rate_at_8 >= {MIN_RELATIVE_RATE}":
            results["scaling"]["relative_rate_at_8"] >= MIN_RELATIVE_RATE,
        "fleet_overview_ms < 500": results["overview"]["fleet_overview_ms"] < 500.0,
        # The binary codec earns its place on any host.
        f"speedup_binary_vs_json >= {MIN_CODEC_SPEEDUP}":
            results["codecs"]["speedup_binary_vs_json"] >= MIN_CODEC_SPEEDUP,
        "size_ratio_json_vs_binary >= 3":
            results["codecs"]["size_ratio_json_vs_binary"] >= 3.0,
    })


def test_f12_fleet_scaling(benchmark):
    results = collect()
    emit(build_report(results))
    check(results)
    _report(results).write(OUTPUT_PATH)

    # Benchmark unit: one JSON batch into a warm 8-network server.
    server = MonitorServer()
    raws = fleet_raws(8)
    for raw in raws:
        server.ingest_json(raw)
    rng = random.Random(23)
    state = {"seq": 10_000}

    def ingest_one():
        state["seq"] += 1
        raw = synthetic_batch(
            3, state["seq"], rng, network_id=f"site-{state['seq'] % 8:02d}"
        ).to_json_bytes()
        server.ingest_json(raw)

    benchmark(ingest_one)


if __name__ == "__main__":
    results = collect()
    check(results)
    payload = _report(results).write(OUTPUT_PATH)
    print(json.dumps(payload, indent=2, sort_keys=True))
