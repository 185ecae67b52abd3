"""Unit tests for the rich HTML dashboard."""

import pytest

from repro.monitor.dashboard import Dashboard
from repro.monitor.records import (
    Direction,
    NeighborObservation,
    PacketRecord,
    StatusRecord,
)
from repro.monitor.server import MonitorServer
from repro.monitor.storage import MetricsStore
from repro.monitor.webview import _layout, render_html, render_topology_svg


def populated_dashboard():
    store = MetricsStore()
    for pid in range(3):
        store.add_packet_record(PacketRecord(
            node=1, seq=pid, timestamp=float(pid), direction=Direction.OUT,
            src=1, dst=2, next_hop=2, prev_hop=1, ptype=3, packet_id=pid,
            size_bytes=40, airtime_s=0.05,
        ))
        store.add_packet_record(PacketRecord(
            node=2, seq=pid, timestamp=pid + 0.5, direction=Direction.IN,
            src=1, dst=2, next_hop=2, prev_hop=1, ptype=3, packet_id=pid,
            size_bytes=40, rssi_dbm=-108.0, snr_db=5.0,
        ))
    for node in (1, 2):
        store.add_status_record(StatusRecord(
            node=node, seq=0, timestamp=10.0, uptime_s=10.0, queue_depth=0,
            route_count=1, neighbor_count=1, battery_v=3.9, tx_frames=3,
            tx_airtime_s=0.15, retransmissions=0, drops=0, duty_utilisation=0.01,
            originated=3, delivered=0, forwarded=0,
            neighbors=(NeighborObservation(3 - node, -108.0, 5.0, 3),),
        ))
        store.note_batch(node, received_at=10.0, dropped_records=0)
    return Dashboard(store, report_interval_s=60.0, monitor_server=MonitorServer(store=store))


class TestTopologySvg:
    def test_contains_nodes_and_edges(self):
        svg = render_topology_svg(populated_dashboard().to_json_dict(now=20.0))
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<circle") == 2
        assert svg.count("<line") == 1
        assert ">1<" in svg and ">2<" in svg  # node labels

    def test_empty_store_renders_empty_svg(self):
        svg = render_topology_svg(Dashboard(MetricsStore()).to_json_dict(now=0.0))
        assert svg.startswith("<svg")
        assert "<circle" not in svg

    def test_nodes_sit_evenly_on_a_circle_in_address_order(self):
        positions = _layout([3, 1, 4, 2])
        assert list(positions) == [1, 2, 3, 4]
        expected = {1: (0.95, 0.5), 2: (0.5, 0.95), 3: (0.05, 0.5), 4: (0.5, 0.05)}
        for node, (x, y) in expected.items():
            assert positions[node] == pytest.approx((x, y), abs=1e-12)
        assert _layout([]) == {}

    def test_map_positions_are_pinned(self):
        svg = render_topology_svg(populated_dashboard().to_json_dict(now=20.0))
        assert '<circle cx="575.6" cy="210.0"' in svg  # node 1
        assert '<circle cx="64.4" cy="210.0"' in svg  # node 2
        assert '<line x1="575.6" y1="210.0" x2="64.4" y2="210.0"' in svg

    def test_link_color_reflects_rssi(self):
        svg = render_topology_svg(populated_dashboard().to_json_dict(now=20.0))
        assert "#e8c268" in svg  # -108 dBm is in the amber band


class TestHtmlPage:
    def test_page_structure(self):
        page = render_html(populated_dashboard(), now=20.0)
        assert page.startswith("<!DOCTYPE html>")
        for marker in ("network health", "packet delivery", "<svg", "Nodes",
                       "Delivery", "Alerts"):
            assert marker in page

    def test_node_rows_present(self):
        page = render_html(populated_dashboard(), now=20.0)
        assert "3.90 V" in page

    def test_delivery_row_pdr(self):
        page = render_html(populated_dashboard(), now=20.0)
        assert "100.0%" in page

    def test_no_alerts_message(self):
        page = render_html(populated_dashboard(), now=20.0)
        assert "no active alerts" in page

    def test_alert_rendered_and_escaped(self):
        dashboard = populated_dashboard()
        # Node 1 is silent long enough for the server's silent-node rule.
        dashboard.monitor_server.sweep_alerts(20_000.0)
        page = render_html(dashboard, now=20_000.0)
        assert "silent_node" in page
        assert 'class="alert' in page

    def test_empty_store_page(self):
        page = render_html(Dashboard(MetricsStore()), now=0.0)
        assert "0/0" in page  # nodes reporting tile

    def test_page_view_evaluates_no_alert_rule(self, request):
        dashboard = populated_dashboard()
        dashboard.monitor_server.sweep_alerts(20_000.0)
        calls = request.getfixturevalue("alert_evaluations")
        page = render_html(dashboard, now=20_000.0)
        assert calls == []
        assert page.count('class="alert critical"') == 2


class TestHttpIntegration:
    def test_index_serves_rich_page_and_text_remains(self):
        import urllib.request
        from repro.monitor.httpapi import MonitoringHttpServer

        server = MonitoringHttpServer(
            populated_dashboard().monitor_server, port=0, clock=lambda: 20.0
        )
        server.start()
        try:
            with urllib.request.urlopen(f"{server.url}/", timeout=5) as response:
                rich = response.read().decode()
            with urllib.request.urlopen(f"{server.url}/text", timeout=5) as response:
                plain = response.read().decode()
        finally:
            server.stop()
        assert "<svg" in rich
        assert "<pre>" in plain and "[nodes]" in plain
