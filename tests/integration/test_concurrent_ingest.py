"""Integration: hammer one MonitorServer from many threads at once.

The RL100-RL103 rule pack exists because the monitor tier is
multi-threaded by construction; this test is the empirical half of the
same claim.  N HTTP clients (each on the ThreadingHTTPServer's own
handler threads) and M UDP senders (drained by the transport's receiver
thread) ingest concurrently into one server, every batch tagged with a
unique (node, seq) pair, and afterwards the self-metrics must account
for every record exactly once: nothing lost to a torn counter, nothing
double-counted, fleet totals consistent with the wire counters.  Page
views and the history route run while a thread ingests: no read may
raise, and a view must be one consistent snapshot of the store.
"""

import json
import sys
import threading
import time
import urllib.request

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
from repro.monitor.records import Direction, StatusRecord
from repro.monitor.sqlitestore import SqliteMetricsStore
from tests.view_oracle import canonical, scan_alert_engine, scan_document

HTTP_THREADS = 4
UDP_THREADS = 2
BATCHES_PER_THREAD = 25
SUBMIT_THREADS = 8
SUBMITS_PER_THREAD = 300
#: Batches each node submits into a file-backed SQLite store.
SQLITE_SUBMITS_PER_THREAD = 150
#: Page views taken while another thread ingests.
VIEWS = 300
#: Fewer on SQLite, where the scan recompute queries a growing table.
SQLITE_VIEWS = 60
RING_NODES = 8


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


def ring_batch(node: int, seq: int) -> RecordBatch:
    """Batch ``seq`` of ``node`` in a ring: a DATA packet sent to the next
    node, the previous node's packet delivered, a HELLO heard, a status."""
    now = float(seq)
    previous = (node - 2) % RING_NODES + 1
    following = node % RING_NODES + 1

    def record(index, **fields):
        base = dict(
            node=node, seq=3 * seq + index, timestamp=now + index / 4, ptype=3,
            packet_id=seq & 0xFFFF, size_bytes=40,
        )
        base.update(fields)
        return PacketRecord(**base)

    return RecordBatch(
        node=node, batch_seq=seq, sent_at=now,
        packet_records=(
            record(0, direction=Direction.OUT, src=node, dst=following, next_hop=following,
                   prev_hop=node, airtime_s=0.072),
            record(1, direction=Direction.IN, src=previous, dst=node, next_hop=node,
                   prev_hop=previous, rssi_dbm=-90.0 - (seq % 7) / 10, snr_db=5.0 - (seq % 3) / 10),
            record(2, direction=Direction.IN, src=following, dst=0xFFFF, next_hop=0xFFFF,
                   prev_hop=following, ptype=1, rssi_dbm=-100.3, snr_db=2.1, size_bytes=22),
        ),
        status_records=(StatusRecord(
            node=node, seq=seq, timestamp=now, uptime_s=now, queue_depth=seq % 4,
            route_count=RING_NODES - 1, neighbor_count=2, battery_v=3.9, tx_frames=seq,
            tx_airtime_s=0.072 * seq, retransmissions=0, drops=0, duty_utilisation=0.01,
            originated=seq, delivered=seq, forwarded=0,
        ),),
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

    def test_sqlite_keeps_every_record_under_concurrent_ingest(self, tmp_path):
        # Each node submits from its own thread and each ingest flushes
        # after its server-lock hold, so flushes overlap other threads'
        # buffered writes and each other.  Every accepted record, status
        # and batch note must reach the file.
        path = str(tmp_path / "shard.sqlite")
        store = SqliteMetricsStore(path, flush_records=16, flush_interval_s=None)
        server = MonitorServer(store=store)
        results = []

        def submitter(node: int) -> None:
            for seq in range(SQLITE_SUBMITS_PER_THREAD):
                results.append(server.submit(ring_batch(node, seq)))

        threads = [
            threading.Thread(target=submitter, args=(node,), daemon=True)
            for node in range(1, RING_NODES + 1)
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
        assert all(result.ok for result in results)
        accepted_packets = sum(result.accepted_packets for result in results)
        accepted_status = sum(result.accepted_status for result in results)
        assert accepted_packets == 3 * RING_NODES * SQLITE_SUBMITS_PER_THREAD
        assert store.flush_stats.flushes > RING_NODES
        with SqliteMetricsStore(path) as reopened:
            assert reopened.packet_record_count() == accepted_packets
            assert reopened.status_record_count() == accepted_status
            assert reopened.nodes() == list(range(1, RING_NODES + 1))
            last = float(SQLITE_SUBMITS_PER_THREAD - 1)
            assert all(reopened.last_seen(node) is not None for node in reopened.nodes())
            assert all(
                reopened.latest_status(node).timestamp == last for node in reopened.nodes()
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

    @staticmethod
    def views_while_a_thread_ingests(store, views):
        """Take ``views`` page views of ``store`` while a thread ingests
        into it; each must equal the document recomputed from the
        metrics.py scans under the same hold of the aggregate's lock,
        where any record written between the two would show as a
        difference.  Returns the distinct documents seen."""
        clock = {"now": 0.0}
        server = MonitorServer(store=store, clock=lambda: clock["now"])
        dashboard = Dashboard(store, report_interval_s=60.0)
        oracle_alerts = scan_alert_engine(store, 60.0)
        stop = threading.Event()
        errors = []

        def ingest() -> None:
            seq = 0
            try:
                while not stop.is_set():
                    for node in range(1, RING_NODES + 1):
                        clock["now"] = float(seq)
                        assert server.submit(ring_batch(node, seq)).ok
                    seq += 1
            except Exception as exc:  # pragma: no cover - reporting
                errors.append(repr(exc))

        thread = threading.Thread(target=ingest, daemon=True)
        documents = set()
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        thread.start()
        try:
            assert wait_until(lambda: server.self_metrics.batches_ingested > RING_NODES)
            for _ in range(views):
                with store.aggregate.lock:
                    now = clock["now"]
                    view = canonical(dashboard.to_json_dict(now))
                    expected = canonical(scan_document(dashboard, oracle_alerts, now))
                assert view == expected
                documents.add(view)
                time.sleep(0)
        finally:
            sys.setswitchinterval(switch_interval)
            stop.set()
            thread.join(timeout=30.0)
            server.close()
        assert not thread.is_alive()
        assert errors == []
        # Ingest ran between the views: they saw many different states.
        assert len(documents) > views // 2
        return documents

    def test_views_are_snapshots_while_a_thread_ingests(self):
        # The store keeps 60 packet records per node, so ingest evicts
        # while the views run.
        store = MetricsStore(max_packet_records_per_node=60)
        self.views_while_a_thread_ingests(store, VIEWS)
        assert store.evictions > 0

    def test_sqlite_views_are_snapshots_while_a_thread_ingests(self):
        # Node state (status, last seen, drops) comes from the store's
        # in-memory mirror, written under the aggregate's lock like the
        # packet aggregate; small flushes keep ingest writing SQLite.
        store = SqliteMetricsStore(flush_records=16, flush_interval_s=None)
        self.views_while_a_thread_ingests(store, SQLITE_VIEWS)

    def test_history_route_reads_while_a_thread_ingests(self):
        store = MetricsStore()
        server = MonitorServer(store=store)
        for seq in range(100):
            server.submit(make_batch(1, seq, records=100))
        dashboard = Dashboard(store, report_interval_s=60.0)
        http = MonitoringHttpServer(server, dashboard, port=0)
        http.start()
        stop = threading.Event()

        def ingest() -> None:
            seq = 100
            while not stop.is_set():
                server.submit(make_batch(1, seq, records=20))
                seq += 1

        thread = threading.Thread(target=ingest, daemon=True)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread.start()
        try:
            for _ in range(20):
                url = f"{http.url}/api/v1/networks/default/history?node=1&interval=60"
                with urllib.request.urlopen(url, timeout=30) as response:
                    assert response.status == 200
                    buckets = json.loads(response.read())
                assert sum(bucket["count"] for bucket in buckets) >= 10_000
        finally:
            sys.setswitchinterval(switch_interval)
            stop.set()
            thread.join(timeout=30.0)
            http.stop()
            server.close()
        assert not thread.is_alive()
