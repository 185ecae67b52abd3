"""Unit tests for the HTTP JSON API (real sockets on localhost)."""

import json
import urllib.request

import pytest

from repro.monitor.dashboard import Dashboard
from repro.monitor.httpapi import MonitoringHttpServer, _sanitize
from repro.monitor.records import Direction, PacketRecord, RecordBatch
from repro.monitor.rollup import bucket_document, rollup_packet_rate
from repro.monitor.server import MonitorServer
from repro.monitor.storage import MetricsStore


@pytest.fixture
def http_server():
    store = MetricsStore()
    monitor_server = MonitorServer(store=store, clock=lambda: 100.0)
    dashboard = Dashboard(store, report_interval_s=60.0)
    server = MonitoringHttpServer(monitor_server, dashboard, port=0, clock=lambda: 100.0)
    server.start()
    yield server
    server.stop()


def get(server, path):
    with urllib.request.urlopen(f"{server.url}{path}", timeout=5) as response:
        return response.status, json.loads(response.read())


def post(server, path, body):
    request = urllib.request.Request(
        f"{server.url}{path}", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


#: The single-network deployment's v1 route prefix.
V1 = "/api/v1/networks/default"


def make_batch_bytes(node=1):
    record = PacketRecord(
        node=node, seq=0, timestamp=50.0, direction=Direction.IN,
        src=2, dst=node, next_hop=node, prev_hop=2, ptype=3, packet_id=1,
        size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
    )
    return RecordBatch(
        node=node, batch_seq=0, sent_at=50.0, packet_records=(record,)
    ).to_json_bytes()


class TestEndpoints:
    def test_ingest_then_query_nodes(self, http_server):
        status, body = post(http_server, f"{V1}/ingest", make_batch_bytes())
        assert status == 200 and body["ok"] and body["accepted_packets"] == 1
        status, nodes = get(http_server, f"{V1}/nodes")
        assert status == 200
        assert [row["node"] for row in nodes] == [1]

    def test_ingest_duplicate_reported(self, http_server):
        post(http_server, f"{V1}/ingest", make_batch_bytes())
        status, body = post(http_server, f"{V1}/ingest", make_batch_bytes())
        assert body["duplicates"] == 1

    def test_bad_batch_is_400(self, http_server):
        status, body = post(http_server, f"{V1}/ingest", b"junk")
        assert status == 400 and not body["ok"]

    def test_summary_document(self, http_server):
        post(http_server, f"{V1}/ingest", make_batch_bytes())
        status, body = get(http_server, f"{V1}/summary")
        assert status == 200
        assert "nodes" in body and "links" in body and "alerts" in body

    def test_links_endpoint(self, http_server):
        post(http_server, f"{V1}/ingest", make_batch_bytes())
        status, links = get(http_server, f"{V1}/links")
        assert status == 200
        assert links[0]["tx"] == 2 and links[0]["rx"] == 1

    def test_health_endpoint(self, http_server):
        post(http_server, f"{V1}/ingest", make_batch_bytes())
        status, body = get(http_server, f"{V1}/health")
        assert status == 200 and "1" in body

    def test_health_route_scores_match_node_rows(self):
        # Batches land at server time 0; pages are read 250 s later,
        # inside one 300 s report interval.
        store = MetricsStore()
        monitor_server = MonitorServer(store=store, report_interval_s=300.0)
        dashboard = Dashboard(store, report_interval_s=300.0)
        with MonitoringHttpServer(
            monitor_server, dashboard, port=0, clock=lambda: 250.0
        ) as server:
            post(server, f"{V1}/ingest", make_batch_bytes(node=1))
            post(server, f"{V1}/ingest", make_batch_bytes(node=2))
            _, health = get(server, f"{V1}/health")
            _, rows = get(server, f"{V1}/nodes")
        assert {str(row["node"]): row["health"] for row in rows} == {
            node: score["score"] for node, score in health.items()
        }

    def test_alerts_endpoint(self, http_server):
        status, body = get(http_server, f"{V1}/alerts")
        assert status == 200 and body == []

    def test_unknown_path_is_404(self, http_server):
        status, body = get_status_only(http_server, "/api/bogus")
        assert status == 404
        # The pre-v1 unversioned paths are gone too.
        status, body = get_status_only(http_server, "/api/summary")
        assert status == 404

    def test_index_serves_rich_html(self, http_server):
        with urllib.request.urlopen(f"{http_server.url}/", timeout=5) as response:
            html = response.read().decode()
        assert response.status == 200
        assert html.startswith("<!DOCTYPE html>") and "<svg" in html

    def test_text_variant_serves_pre(self, http_server):
        with urllib.request.urlopen(f"{http_server.url}/text", timeout=5) as response:
            html = response.read().decode()
        assert response.status == 200
        assert "<pre>" in html and "[nodes]" in html

    def test_dot_endpoint(self, http_server):
        with urllib.request.urlopen(f"{http_server.url}{V1}/dot", timeout=5) as response:
            body = response.read().decode()
        assert body.startswith("digraph")


def get_status_only(server, path):
    try:
        with urllib.request.urlopen(f"{server.url}{path}", timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHistoryEndpoint:
    def test_packet_rate_history(self, http_server):
        post(http_server, f"{V1}/ingest", make_batch_bytes())
        status, body = get(http_server, f"{V1}/history?node=1&interval=60")
        assert status == 200
        assert len(body) == 1
        assert body[0]["count"] == 1
        assert body[0]["start"] == 0.0

    def test_status_field_history(self, http_server):
        from repro.monitor.records import RecordBatch, StatusRecord
        record = StatusRecord(
            node=1, seq=0, timestamp=50.0, uptime_s=50.0, queue_depth=4,
            route_count=1, neighbor_count=0, battery_v=3.7, tx_frames=1,
            tx_airtime_s=0.1, retransmissions=0, drops=0, duty_utilisation=0.0,
            originated=0, delivered=0, forwarded=0,
        )
        raw = RecordBatch(
            node=1, batch_seq=5, sent_at=50.0, status_records=(record,)
        ).to_json_bytes()
        post(http_server, f"{V1}/ingest", raw)
        status, body = get(
            http_server, f"{V1}/history?node=1&field=queue_depth&interval=60"
        )
        assert status == 200
        assert body[0]["mean"] == 4.0

    def test_missing_node_param_is_400(self, http_server):
        status, body = get_status_only(http_server, f"{V1}/history?interval=60")
        assert status == 400

    def test_unknown_field_is_400(self, http_server):
        post(http_server, f"{V1}/ingest", make_batch_bytes())
        status, body = get_status_only(http_server, f"{V1}/history?node=1&field=bogus")
        assert status == 400

    def test_history_buckets_are_bucket_documents(self, http_server):
        post(http_server, f"{V1}/ingest", make_batch_bytes())
        status, body = get(http_server, f"{V1}/history?node=1&interval=60")
        series = rollup_packet_rate(http_server.dashboard.store, interval_s=60.0, node=1)
        assert status == 200
        assert body == [bucket_document(bucket, 60.0) for bucket in series.buckets()]


class TestSanitize:
    def test_nan_becomes_none(self):
        assert _sanitize(float("nan")) is None
        assert _sanitize({"x": float("inf")}) == {"x": None}
        assert _sanitize([1.0, float("nan")]) == [1.0, None]

    def test_normal_values_pass_through(self):
        assert _sanitize({"a": 1, "b": "x", "c": [1.5]}) == {"a": 1, "b": "x", "c": [1.5]}

    def test_summary_is_strict_json_when_empty(self, http_server):
        # network_pdr is NaN on an empty store; the API must still emit
        # strict JSON (null, not NaN).
        status, body = get(http_server, f"{V1}/summary")
        assert status == 200
        assert body["network_pdr"] is None


class TestServerSelfMetricsEndpoint:
    def test_self_metrics_after_ingest(self, http_server):
        post(http_server, f"{V1}/ingest", make_batch_bytes())
        status, body = get(http_server, "/api/v1/server")
        assert status == 200
        assert body["batches_ingested"] == 1
        assert body["records_ingested"] == 1
        assert body["bytes_received"] > 0

    def test_decode_failures_visible(self, http_server):
        post(http_server, f"{V1}/ingest", b"junk")
        status, body = get(http_server, "/api/v1/server")
        assert body["decode_failures"] == 1


class TestBackpressureOverHttp:
    def test_summary_includes_server_panel(self):
        store = MetricsStore()
        monitor_server = MonitorServer(store=store, clock=lambda: 100.0)
        dashboard = Dashboard(store, report_interval_s=60.0, monitor_server=monitor_server)
        with MonitoringHttpServer(
            monitor_server, dashboard, port=0, clock=lambda: 100.0
        ) as server:
            post(server, f"{V1}/ingest", make_batch_bytes())
            status, body = get(server, f"{V1}/summary")
        assert status == 200
        assert body["server"]["batches_ingested"] == 1
        assert body["server"]["records_ingested"] == 1


def post_with_type(server, path, body, content_type):
    request = urllib.request.Request(
        f"{server.url}{path}", data=body, method="POST",
        headers={"Content-Type": content_type} if content_type else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestCodecNegotiationOverHttp:
    def binary_body(self, node=1, network_id=None):
        import dataclasses

        from repro.monitor.codec import BinaryCodec

        record = PacketRecord(
            node=node, seq=0, timestamp=50.0, direction=Direction.IN,
            src=2, dst=node, next_hop=node, prev_hop=2, ptype=3, packet_id=1,
            size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
        )
        batch = RecordBatch(node=node, batch_seq=0, sent_at=50.0, packet_records=(record,))
        if network_id is not None:
            batch = dataclasses.replace(batch, network_id=network_id)
        return BinaryCodec().encode(batch)

    def test_binary_post_to_v1_ingest(self, http_server):
        from repro.monitor.codec import BINARY_CONTENT_TYPE
        status, body = post_with_type(
            http_server, "/api/v1/networks/default/ingest",
            self.binary_body(), BINARY_CONTENT_TYPE,
        )
        assert status == 200 and body["ok"] and body["accepted_packets"] == 1
        status, nodes = get(http_server, "/api/v1/networks/default/nodes")
        assert [row["node"] for row in nodes] == [1]

    def test_binary_body_with_json_content_type_is_400(self, http_server):
        status, body = post_with_type(
            http_server, "/api/v1/networks/default/ingest",
            self.binary_body(), "application/json",
        )
        assert status == 400 and not body["ok"]

    def test_cross_network_stamped_batch_is_400(self, http_server):
        from repro.monitor.codec import BINARY_CONTENT_TYPE
        status, body = post_with_type(
            http_server, "/api/v1/networks/default/ingest",
            self.binary_body(network_id="other-net"), BINARY_CONTENT_TYPE,
        )
        assert status == 400
        assert "stamped for network" in body["error"]

    def test_http_client_send_batch_binary(self, http_server):
        from repro.monitor.uplink import HttpIngestClient

        client = HttpIngestClient(http_server.url, codec="binary")
        record = PacketRecord(
            node=9, seq=0, timestamp=50.0, direction=Direction.IN,
            src=2, dst=9, next_hop=9, prev_hop=2, ptype=3, packet_id=1,
            size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
        )
        result = client.send_batch(
            RecordBatch(node=9, batch_seq=0, sent_at=50.0, packet_records=(record,))
        )
        assert result.ok and client.posts_ok == 1
        status, nodes = get(http_server, "/api/v1/networks/default/nodes")
        assert [row["node"] for row in nodes] == [9]


class TestServerLifecycle:
    def make(self):
        store = MetricsStore()
        monitor_server = MonitorServer(store=store, clock=lambda: 100.0)
        dashboard = Dashboard(store, report_interval_s=60.0)
        return MonitoringHttpServer(monitor_server, dashboard, port=0)

    def test_stop_before_start_is_safe(self):
        # shutdown() with no serve_forever() running blocks forever on
        # an event that is never set; stop() must not reach it.
        server = self.make()
        server.stop()
        server.stop()

    def test_close_before_start_is_safe(self):
        server = self.make()
        server.close()

    def test_stop_is_idempotent_after_start(self):
        server = self.make()
        server.start()
        server.stop()
        server.stop()
        server.close()

    def test_start_is_idempotent(self):
        server = self.make()
        server.start()
        url = server.url
        server.start()  # second start(): the first serve thread keeps the port
        assert server.url == url
        server.stop()

    def test_context_manager_serves_and_stops(self):
        with self.make() as server:
            status, _ = get(server, f"{V1}/summary")
            assert status == 200
        # The serve thread is joined on __exit__.
        assert server._thread is None
