"""F13 — Streaming economics: cached overview reads and push fan-out.

The push pipeline (``docs/STREAMING.md``) claims the live read path is
cheap: fleet overviews are cached snapshot reads keyed on ingest
progress, publishing an event is O(1) bookkeeping per subscriber, and a
delta reaches an SSE client in interactive time.  This bench pins those
claims in ``BENCH_stream.json`` at the repo root:

1. **Flat overview latency.**  A steady-state (cache-hit)
   ``fleet_overview`` read must not grow with the fleet: the 512-network
   figure must stay within 2x of the 8-network figure (plus a small
   absolute floor so microsecond timer noise cannot fail the bench).
   The cache-miss rebuild cost is recorded separately — that one is
   honestly O(networks).
2. **Fan-out cost.**  Per-event publish cost on a hub with 1, 16 and
   128 subscribers (bounded queues, no consumer draining) —
   informational, the scaling should read roughly linear in
   subscribers with a tiny constant.
3. **End-to-end push latency.**  A live threaded HTTP server, a real
   ``SseStreamClient`` over a socket: median wall time from
   ``server.submit(batch)`` to the client holding the round's last
   event.  Asserted interactive (< 1 s — typically single-digit ms).
"""

import json
import threading
import time
from pathlib import Path

from repro.analysis.report import ExperimentReport
from repro.api import (
    Dashboard,
    Direction,
    MetricsStore,
    MonitorServer,
    MonitoringHttpServer,
    PacketRecord,
    RecordBatch,
    SseStreamClient,
    StreamHub,
    fleet_overview,
)

from benchmarks.common import BenchReport, check_gates, emit

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_stream.json"

RECORDS_PER_BATCH = 5
FLEET_SIZES = (8, 64, 512)
WARM_READS = 2000
REBUILDS = 20
FANOUT_SUBSCRIBERS = (1, 16, 128)
FANOUT_EVENTS = 2000
E2E_ROUNDS = 10
#: the flatness contract: cached read at 512 networks <= 2x the 8-network
#: read, with an absolute floor (us) under which "2x" is timer noise
MAX_WARM_RATIO = 2.0
WARM_NOISE_FLOOR_US = 50.0
#: the interactivity contract on the end-to-end push path
MAX_E2E_MEDIAN_MS = 1000.0


def small_batch(node, batch_seq, network_id, ts):
    base_seq = batch_seq * RECORDS_PER_BATCH
    records = tuple(
        PacketRecord(
            node=node, seq=base_seq + offset, timestamp=ts + offset * 0.1,
            direction=Direction.OUT, src=node, dst=1, next_hop=1, prev_hop=node,
            ptype=3, packet_id=base_seq + offset, size_bytes=40, airtime_s=0.05,
        )
        for offset in range(RECORDS_PER_BATCH)
    )
    return RecordBatch(
        node=node, batch_seq=batch_seq, sent_at=ts + 1.0,
        packet_records=records, network_id=network_id,
    )


def populated_server(n_networks):
    server = MonitorServer()
    for index in range(n_networks):
        batch = small_batch(
            node=1, batch_seq=0, network_id=f"site-{index:03d}", ts=10.0
        )
        assert server.submit(batch).ok
    return server


def measure_overview():
    """Cache-hit (warm) vs cache-miss (rebuild) fleet-overview latency."""
    table = {}
    for n_networks in FLEET_SIZES:
        server = populated_server(n_networks)
        now = 600.0
        rebuild_s = []
        for round_index in range(REBUILDS):
            # An accepted batch bumps fleet_version, invalidating the cache.
            invalidator = small_batch(
                node=1, batch_seq=round_index + 1, network_id="site-000",
                ts=20.0 + round_index,
            )
            assert server.submit(invalidator).ok
            start = time.perf_counter()
            fleet_overview(server, now=now)
            rebuild_s.append(time.perf_counter() - start)
        fleet_overview(server, now=now)  # prime the cache
        start = time.perf_counter()
        for _ in range(WARM_READS):
            overview = fleet_overview(server, now=now)
        warm_s = (time.perf_counter() - start) / WARM_READS
        assert overview["totals"]["networks"] == n_networks
        server.close()
        rebuild_s.sort()
        table[str(n_networks)] = {
            "warm_us": round(warm_s * 1e6, 2),
            "rebuild_ms": round(rebuild_s[len(rebuild_s) // 2] * 1e3, 3),
        }
    return table


def measure_fanout():
    """Per-event publish cost as subscriber count grows (no draining)."""
    table = {}
    for n_subscribers in FANOUT_SUBSCRIBERS:
        hub = StreamHub()
        subscriptions = [
            hub.subscribe(["bench"], queue_size=FANOUT_EVENTS + 64)
            for _ in range(n_subscribers)
        ]
        start = time.perf_counter()
        for index in range(FANOUT_EVENTS):
            hub.publish("bench", "fleet-tile", {"i": index})
        elapsed = time.perf_counter() - start
        assert all(s.stats()["queued"] == FANOUT_EVENTS for s in subscriptions)
        hub.close()
        table[str(n_subscribers)] = round(elapsed / FANOUT_EVENTS * 1e6, 2)
    return table


def measure_e2e():
    """Median ingest -> SSE-client latency over a real socket."""
    store = MetricsStore()
    server = MonitorServer(store=store)
    http_server = MonitoringHttpServer(
        server, Dashboard(store, report_interval_s=60.0), port=0
    )
    http_server.start()
    client = SseStreamClient(
        http_server.url, network_id="e2e", heartbeat_s=0.5, timeout_s=10.0
    )
    arrivals = []

    def consume():
        for event in client.events():
            arrivals.append((event, time.perf_counter()))

    thread = threading.Thread(target=consume, daemon=True)
    thread.start()
    latencies_ms = []
    try:
        deadline = time.perf_counter() + 5.0
        while server.stream.subscriber_count == 0:
            assert time.perf_counter() < deadline, "subscriber never registered"
            time.sleep(0.002)
        for round_index in range(E2E_ROUNDS):
            # One bucket per round: 3 events (ingest-delta, rollup, tile).
            expected = (round_index + 1) * 3
            batch = small_batch(
                node=1, batch_seq=round_index, network_id="e2e",
                ts=10.0 + round_index * 400.0,
            )
            start = time.perf_counter()
            assert server.submit(batch).ok
            deadline = start + 5.0
            while len(arrivals) < expected:
                assert time.perf_counter() < deadline, "push never arrived"
                time.sleep(0.001)
            latencies_ms.append((arrivals[expected - 1][1] - start) * 1e3)
    finally:
        client.close()
        http_server.stop()
        server.close()
    latencies_ms.sort()
    return {
        "rounds": E2E_ROUNDS,
        "median_ms": round(latencies_ms[len(latencies_ms) // 2], 3),
        "max_ms": round(latencies_ms[-1], 3),
    }


def collect():
    overview = measure_overview()
    fanout = measure_fanout()
    e2e = measure_e2e()
    return {
        "overview": {
            "per_fleet_size": overview,
            "warm_ratio_512_vs_8": round(
                overview["512"]["warm_us"] / overview["8"]["warm_us"], 3
            ),
            "max_warm_ratio": MAX_WARM_RATIO,
            "warm_noise_floor_us": WARM_NOISE_FLOOR_US,
        },
        "fanout_publish_us_per_event": fanout,
        "e2e": e2e,
    }


def build_report(results):
    report = ExperimentReport(
        experiment_id="F13",
        title="push pipeline: cached overview reads, fan-out, e2e latency",
        expectation=(
            "the cached fleet-overview read stays flat (<= 2x) from 8 to "
            "512 networks while the rebuild cost grows honestly with the "
            "fleet; publish cost scales ~linearly in subscribers with a "
            "microsecond constant; a delta reaches a live SSE client in "
            "interactive time"
        ),
        headers=["path", "value", "unit"],
    )
    for size, row in results["overview"]["per_fleet_size"].items():
        report.add_row(f"overview_warm_{size}", f"{row['warm_us']:.2f}", "us")
        report.add_row(f"overview_rebuild_{size}", f"{row['rebuild_ms']:.3f}", "ms")
    report.add_row(
        "warm_ratio_512_vs_8",
        f"{results['overview']['warm_ratio_512_vs_8']:.3f}",
        "x",
    )
    for subs, cost in results["fanout_publish_us_per_event"].items():
        report.add_row(f"publish_{subs}_subs", f"{cost:.2f}", "us/event")
    report.add_row("e2e_median", f"{results['e2e']['median_ms']:.3f}", "ms")
    report.add_row("e2e_max", f"{results['e2e']['max_ms']:.3f}", "ms")
    return report


def _report(results) -> BenchReport:
    return BenchReport(
        bench="F13",
        title="Push pipeline: cached overview reads, fan-out, e2e latency",
        results=results,
    )


def check(results) -> None:
    """The F13 gates, run before the artifact is written."""
    warm = results["overview"]["per_fleet_size"]
    check_gates("F13", {
        f"warm read at 512 <= max({MAX_WARM_RATIO}x at 8, {WARM_NOISE_FLOOR_US} us)": (
            warm["512"]["warm_us"]
            <= max(MAX_WARM_RATIO * warm["8"]["warm_us"], WARM_NOISE_FLOOR_US)
        ),
        f"e2e rounds == {E2E_ROUNDS}": results["e2e"]["rounds"] == E2E_ROUNDS,
        f"e2e median_ms < {MAX_E2E_MEDIAN_MS}":
            results["e2e"]["median_ms"] < MAX_E2E_MEDIAN_MS,
    })


def test_f13_stream(benchmark):
    results = collect()
    emit(build_report(results))
    check(results)
    _report(results).write(OUTPUT_PATH)

    # Benchmark unit: one publish into a 16-subscriber hub (the per-event
    # cost ingest pays while a fleet dashboard is open in 16 tabs).
    hub = StreamHub()
    for _ in range(16):
        hub.subscribe(["bench"])
    state = {"i": 0}

    def publish_one():
        state["i"] += 1
        hub.publish("bench", "fleet-tile", {"i": state["i"]})

    benchmark(publish_one)
    hub.close()


if __name__ == "__main__":
    results = collect()
    check(results)
    payload = _report(results).write(OUTPUT_PATH)
    print(json.dumps(payload, indent=2, sort_keys=True))
