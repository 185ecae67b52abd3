"""Integration: hammer one MonitorServer from many threads at once.

The RL100-RL103 rule pack exists because the monitor tier is
multi-threaded by construction; this test is the empirical half of the
same claim.  N HTTP clients (each on the ThreadingHTTPServer's own
handler threads) and M UDP senders (drained by the transport's receiver
thread) ingest concurrently into one server, every batch tagged with a
unique (node, seq) pair, and afterwards the self-metrics must account
for every record exactly once: nothing lost to a torn counter, nothing
double-counted, fleet totals consistent with the wire counters.
"""

import sys
import threading
import time

from repro.api import (
    Dashboard,
    HttpIngestClient,
    HttpIngestTransport,
    MetricsStore,
    MonitoringHttpServer,
    MonitorServer,
    PacketRecord,
    RecordBatch,
    UdpIngestClient,
    UdpIngestTransport,
    fleet_overview,
)
from repro.monitor.records import Direction

HTTP_THREADS = 4
UDP_THREADS = 2
BATCHES_PER_THREAD = 25
SUBMIT_THREADS = 8
SUBMITS_PER_THREAD = 300


def make_batch(node: int, seq: int, records: int = 1) -> RecordBatch:
    """Batch ``seq`` of ``node``: ``records`` packet records, all fresh."""
    packet_records = tuple(
        PacketRecord(
            node=node, seq=record_seq, timestamp=float(seq), direction=Direction.IN,
            src=1, dst=node, next_hop=node, prev_hop=1, ptype=3,
            packet_id=record_seq, size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
        )
        for record_seq in range(seq * records, (seq + 1) * records)
    )
    return RecordBatch(
        node=node, batch_seq=seq, sent_at=float(seq),
        packet_records=packet_records, status_records=(), dropped_records=0,
    )


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestConcurrentIngest:
    def test_no_lost_or_duplicated_metrics(self):
        store = MetricsStore()
        server = MonitorServer(store=store)
        dashboard = Dashboard(store, report_interval_s=60.0)
        http_server = MonitoringHttpServer(server, dashboard, port=0)
        http_transport = server.attach_transport(HttpIngestTransport(http_server))
        udp_transport = server.attach_transport(UdpIngestTransport(server))
        http_transport.start()
        udp_transport.start()
        errors = []
        try:
            def http_sender(node: int) -> None:
                client = HttpIngestClient(http_transport.url)
                try:
                    for seq in range(BATCHES_PER_THREAD):
                        result = client.send_batch(make_batch(node, seq))
                        if not result.ok:
                            errors.append((node, seq, result.error))
                except Exception as exc:  # pragma: no cover - reporting
                    errors.append((node, "exception", repr(exc)))

            def udp_sender(node: int) -> None:
                try:
                    with UdpIngestClient("127.0.0.1", udp_transport.port) as client:
                        for seq in range(BATCHES_PER_THREAD):
                            client.send_batch(make_batch(node, seq))
                except Exception as exc:  # pragma: no cover - reporting
                    errors.append((node, "exception", repr(exc)))

            threads = [
                threading.Thread(target=http_sender, args=(10 + t,), daemon=True)
                for t in range(HTTP_THREADS)
            ] + [
                threading.Thread(target=udp_sender, args=(50 + t,), daemon=True)
                for t in range(UDP_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []

            total = (HTTP_THREADS + UDP_THREADS) * BATCHES_PER_THREAD
            # UDP datagrams finish asynchronously on the receiver thread;
            # loopback does not drop, so every one must eventually land.
            assert wait_until(
                lambda: server.self_metrics.batches_ingested >= total
            ), f"ingested {server.self_metrics.batches_ingested}/{total}"
        finally:
            udp_transport.stop()
            http_transport.stop()
            server.close()

        document = server.self_metrics_document()
        total = (HTTP_THREADS + UDP_THREADS) * BATCHES_PER_THREAD
        # Exactly-once accounting: no batch lost to a torn counter
        # update, none double-counted, none misclassified.
        assert document["batches_ingested"] == total
        assert document["packet_records_ingested"] == total
        assert document["status_records_ingested"] == 0
        assert document["dedup_hits"] == 0
        assert document["decode_failures"] == 0

        udp_stats = document["transports"]["udp"]
        udp_total = UDP_THREADS * BATCHES_PER_THREAD
        assert udp_stats["datagrams_received"] == udp_total
        assert udp_stats["malformed_datagrams"] == 0
        assert udp_stats["batches_submitted"] == udp_total
        assert udp_stats["sequence"]["lost"] == 0
        assert udp_stats["sequence"]["duplicates"] == 0

        # Fleet totals derive from per-shard counters updated on the
        # same hot path — they must agree with the wire-side tally.
        overview = fleet_overview(server, now=float(BATCHES_PER_THREAD))
        assert overview["totals"]["batches_ingested"] == total
        assert overview["totals"]["records_ingested"] == total
        assert overview["totals"]["nodes"] == HTTP_THREADS + UDP_THREADS

    def test_each_submitter_gets_its_own_result(self):
        # Node n submits batches of n fresh records from its own thread,
        # so a result that reports another caller's batch is visible.
        server = MonitorServer()
        results = {}

        def submitter(node: int) -> None:
            results[node] = [
                server.submit(make_batch(node, seq, records=node))
                for seq in range(SUBMITS_PER_THREAD)
            ]

        threads = [
            threading.Thread(target=submitter, args=(node,), daemon=True)
            for node in range(1, SUBMIT_THREADS + 1)
        ]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        server.close()
        assert sorted(results) == list(range(1, SUBMIT_THREADS + 1))
        for node, node_results in results.items():
            assert [result.accepted_packets for result in node_results] == (
                [node] * SUBMITS_PER_THREAD
            )

    def test_concurrent_stop_is_safe(self):
        # Several threads racing stop() on both transports: exactly one
        # wins each teardown, the others find nothing to do, and nobody
        # deadlocks or raises.
        store = MetricsStore()
        server = MonitorServer(store=store)
        dashboard = Dashboard(store, report_interval_s=60.0)
        http_server = MonitoringHttpServer(server, dashboard, port=0)
        http_transport = server.attach_transport(HttpIngestTransport(http_server))
        udp_transport = server.attach_transport(UdpIngestTransport(server))
        http_transport.start()
        udp_transport.start()
        errors = []

        def stopper() -> None:
            try:
                udp_transport.stop()
                http_transport.stop()
            except Exception as exc:  # pragma: no cover - reporting
                errors.append(repr(exc))

        threads = [threading.Thread(target=stopper, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        server.close()
