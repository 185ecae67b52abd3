"""Unit tests for the HTTP JSON API (real sockets on localhost)."""

import json
import socket
import urllib.request

import pytest

from repro.monitor.dashboard import Dashboard
from repro.monitor.httpapi import MonitoringHttpServer, _sanitize
from repro.monitor.records import Direction, PacketRecord, RecordBatch, StatusRecord
from repro.monitor.rollup import bucket_document, rollup_packet_rate
from repro.monitor.server import MonitorServer
from repro.monitor.storage import MetricsStore


@pytest.fixture
def http_server():
    store = MetricsStore()
    monitor_server = MonitorServer(store=store, clock=lambda: 100.0)
    server = MonitoringHttpServer(monitor_server, port=0, clock=lambda: 100.0)
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


def raw_post(server, path, content_length, body):
    """POST with a verbatim Content-Length header over a raw socket.

    The socket stays open for writing, so a server that waits for more
    body than was sent makes this time out instead of stalling the suite.
    Returns (status, JSON body), or (None, None) when the server hangs up
    without answering.
    """
    host, port = server.address
    request = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {content_length}\r\n\r\n"
    ).encode("ascii") + body
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(request)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    if not response:
        return None, None
    head, _, payload = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


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


def make_status_batch_bytes(node=1):
    record = StatusRecord(
        node=node, seq=0, timestamp=50.0, uptime_s=50.0, queue_depth=4,
        route_count=1, neighbor_count=0, battery_v=3.7, tx_frames=1,
        tx_airtime_s=0.1, retransmissions=0, drops=0, duty_utilisation=0.0,
        originated=0, delivered=0, forwarded=0,
    )
    return RecordBatch(
        node=node, batch_seq=5, sent_at=50.0, status_records=(record,)
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

    @pytest.mark.parametrize(
        "content_length, payload",
        [("4", b"junk"), ("abc", b""), ("-1", b"")],
        ids=["junk-body", "non-integer-length", "negative-length"],
    )
    def test_bad_batch_is_400(self, http_server, content_length, payload):
        status, body = raw_post(http_server, f"{V1}/ingest", content_length, payload)
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
        with MonitoringHttpServer(monitor_server, port=0, clock=lambda: 250.0) as server:
            post(server, f"{V1}/ingest", make_batch_bytes(node=1))
            post(server, f"{V1}/ingest", make_batch_bytes(node=2))
            _, health = get(server, f"{V1}/health")
            _, rows = get(server, f"{V1}/nodes")
        assert {str(row["node"]): row["health"] for row in rows} == {
            node: score["score"] for node, score in health.items()
        }

    @pytest.mark.parametrize("heartbeat", ["nan", "inf"])
    def test_bad_heartbeat_is_400(self, http_server, heartbeat):
        status, body = get_status_only(http_server, f"{V1}/stream?heartbeat={heartbeat}")
        assert status == 400 and "heartbeat" in body["error"]

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


class TestOneReportInterval:
    def test_every_route_scores_with_the_servers_interval(self):
        monitor_server = MonitorServer(clock=lambda: 0.0, report_interval_s=300.0)
        monitor_server.submit(RecordBatch(node=1, batch_seq=0, sent_at=0.0))
        monitor_server.submit(RecordBatch(node=1, batch_seq=0, sent_at=0.0, network_id="campus"))
        expected = monitor_server.materialize_tiles(200.0, report_interval_s=300.0)
        # Silent for 200 s: liveness 1.0 at 300 s, 0.42 at 60 s.
        assert [tile["health"] for tile in expected] == [100.0, 100.0]
        with MonitoringHttpServer(monitor_server, port=0, clock=lambda: 200.0) as server:
            status, overview = get(server, "/api/v1/fleet")
            assert status == 200
            assert overview["networks"] == expected
            for network in ("default", "campus"):
                _status, nodes = get(server, f"/api/v1/networks/{network}/health")
                assert nodes["1"]["liveness"] == 1.0
            _status, summary = get(server, "/api/v1/networks/campus/summary")
            assert summary["network_health"] == 100.0
        monitor_server.close()


def get_page(server, path):
    """(status, body text) of a page; a 404 is returned, not raised."""
    try:
        with urllib.request.urlopen(f"{server.url}{path}", timeout=5) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def battery_batch(battery_v, seq, network_id="default"):
    """A status-only batch of node 1 reporting ``battery_v``."""
    record = StatusRecord(
        node=1, seq=seq, timestamp=50.0 + seq, uptime_s=50.0, queue_depth=0,
        route_count=1, neighbor_count=0, battery_v=battery_v, tx_frames=1,
        tx_airtime_s=0.1, retransmissions=0, drops=0, duty_utilisation=0.0,
        originated=0, delivered=0, forwarded=0,
    )
    return RecordBatch(
        node=1, batch_seq=seq, sent_at=50.0 + seq, status_records=(record,),
        network_id=network_id,
    ).to_json_bytes()


class TestOneAlertState:
    """Every view shows the server's alert engine of its network."""

    @staticmethod
    def views(server):
        """The default network's alerts as each view shows them."""
        _, routed = get(server, f"{V1}/alerts")
        _, summary = get(server, f"{V1}/summary")
        _, metrics = get(server, "/api/v1/server")
        _, text = get_page(server, "/text")
        _, page = get_page(server, "/")
        _, network_page = get_page(server, "/networks/default")
        return routed, summary["alerts"], metrics["alerts_active"], text, page, network_page

    def test_views_show_the_alert_the_ingest_path_raised(self):
        clock = {"now": 100.0}
        monitor_server = MonitorServer(clock=lambda: clock["now"])
        with MonitoringHttpServer(monitor_server, port=0, clock=lambda: clock["now"]) as server:
            status, body = post(server, f"{V1}/ingest", battery_batch(3.2, seq=0))
            assert status == 200 and body["ok"]
            clock["now"] = 400.0
            routed, summary, active, text, page, network_page = self.views(server)
        expected = {
            "rule": "battery_low", "node": 1, "severity": "warning",
            "message": "battery at 3.20 V", "raised_at": 100.0,
        }
        assert routed == summary == [expected]
        assert active == 1
        assert "[alerts]  1 active" in text
        assert "  WARNING  battery_low    node 1: battery at 3.20 V (since t=100s)" in text
        for html_page in (page, network_page):
            assert html_page.count('class="alert ') == 1
            assert 'data-key="battery_low:1"' in html_page
            assert "since t=100s" in html_page
        monitor_server.close()

    def test_an_alert_the_ingest_path_clears_leaves_every_view(self, request):
        clock = {"now": 100.0}
        monitor_server = MonitorServer(clock=lambda: clock["now"])
        with MonitoringHttpServer(monitor_server, port=0, clock=lambda: clock["now"]) as server:
            post(server, f"{V1}/ingest", battery_batch(3.2, seq=0))
            assert [alert["rule"] for alert in get(server, f"{V1}/alerts")[1]] == ["battery_low"]
            clock["now"] = 130.0
            post(server, f"{V1}/ingest", battery_batch(3.9, seq=1))
            calls = request.getfixturevalue("alert_evaluations")
            routed, summary, active, text, page, network_page = self.views(server)
        assert calls == []
        assert routed == summary == [] and active == 0
        assert "[alerts]  0 active" in text
        assert "no active alerts" in page and "no active alerts" in network_page
        monitor_server.close()

    def test_page_views_of_three_networks_evaluate_nothing(self, request):
        networks = ("default", "campus", "depot")
        monitor_server = MonitorServer(clock=lambda: 100.0)
        for index, network in enumerate(networks):
            # A low battery on every network but the last.
            battery_v = 3.2 if index < 2 else 3.9
            assert monitor_server.ingest_json(battery_batch(battery_v, 0, network)).ok
        calls = request.getfixturevalue("alert_evaluations")
        views = 4
        seen = {}
        with MonitoringHttpServer(monitor_server, port=0, clock=lambda: 100.0) as server:
            for _ in range(views):
                for network in networks:
                    dashboard = Dashboard(
                        monitor_server.store_for(network),
                        monitor_server=monitor_server,
                        network_id=network,
                    )
                    direct = dashboard.to_json_dict(100.0)["alerts"]
                    _, summary = get(server, f"/api/v1/networks/{network}/summary")
                    _, routed = get(server, f"/api/v1/networks/{network}/alerts")
                    status, _page = get_page(server, f"/networks/{network}")
                    assert status == 200
                    assert direct == summary["alerts"] == routed
                    seen[network] = [alert["rule"] for alert in routed]
            get_page(server, "/")
            get_page(server, "/text")
        assert calls == []
        assert seen == {"default": ["battery_low"], "campus": ["battery_low"], "depot": []}
        monitor_server.close()

    def test_a_network_created_again_is_served_from_its_new_store(self):
        monitor_server = MonitorServer(clock=lambda: 100.0, max_networks=1)
        with MonitoringHttpServer(monitor_server, port=0, clock=lambda: 100.0) as server:
            post(server, f"{V1}/ingest", make_batch_bytes(node=1))
            assert [row["node"] for row in get(server, f"{V1}/nodes")[1]] == [1]
            # Another network evicts the default one, which comes back
            # with node 2 alone.
            post(server, "/api/v1/networks/campus/ingest", make_batch_bytes(node=5))
            status, _ = get_status_only(server, f"{V1}/nodes")
            assert status == 404
            assert get_page(server, "/")[0] == get_page(server, "/text")[0] == 404
            post(server, f"{V1}/ingest", make_batch_bytes(node=2))
            _, nodes = get(server, f"{V1}/nodes")
            _, summary = get(server, f"{V1}/summary")
            assert get_page(server, "/")[0] == get_page(server, "/text")[0] == 200
        assert monitor_server.registry.evictions == 2
        assert [row["node"] for row in nodes] == [2]
        assert [row["node"] for row in summary["nodes"]] == [2]
        monitor_server.close()


class TestHistoryEndpoint:
    def test_packet_rate_history(self, http_server):
        post(http_server, f"{V1}/ingest", make_batch_bytes())
        status, body = get(http_server, f"{V1}/history?node=1&interval=60")
        assert status == 200
        assert len(body) == 1
        assert body[0]["count"] == 1
        assert body[0]["start"] == 0.0

    def test_status_field_history(self, http_server):
        post(http_server, f"{V1}/ingest", make_status_batch_bytes())
        status, body = get(
            http_server, f"{V1}/history?node=1&field=queue_depth&interval=60"
        )
        assert status == 200
        assert body[0]["mean"] == 4.0

    @pytest.mark.parametrize(
        "query",
        [
            "interval=60",
            "node=1&field=bogus",
            "node=1&field=neighbors",
            "node=1&interval=0",
            "node=1&interval=-5",
            "node=1&interval=nan",
            "node=1&interval=inf",
        ],
        ids=[
            "no-node", "unknown-field", "non-numeric-field", "zero-interval",
            "negative-interval", "nan-interval", "inf-interval",
        ],
    )
    def test_bad_query_is_400(self, http_server, query):
        # Packet and status records are stored, so every rollup has input.
        post(http_server, f"{V1}/ingest", make_batch_bytes())
        post(http_server, f"{V1}/ingest", make_status_batch_bytes())
        status, body = get_status_only(http_server, f"{V1}/history?{query}")
        assert status == 400

    def test_history_buckets_are_bucket_documents(self, http_server):
        post(http_server, f"{V1}/ingest", make_batch_bytes())
        status, body = get(http_server, f"{V1}/history?node=1&interval=60")
        series = rollup_packet_rate(http_server.monitor_server.store, interval_s=60.0, node=1)
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
        with MonitoringHttpServer(monitor_server, port=0, clock=lambda: 100.0) as server:
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
        return MonitoringHttpServer(monitor_server, port=0)

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
