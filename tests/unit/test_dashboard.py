"""Unit tests for the dashboard renderers."""

import pytest

from repro.monitor.dashboard import Dashboard, _format_table
from repro.monitor.records import (
    Direction,
    NeighborObservation,
    PacketRecord,
    StatusRecord,
)
from repro.monitor.storage import MetricsStore


def populate(store):
    """Two nodes, some traffic 1 -> 2, status from both."""
    for pid in range(3):
        store.add_packet_record(PacketRecord(
            node=1, seq=pid, timestamp=float(pid), direction=Direction.OUT,
            src=1, dst=2, next_hop=2, prev_hop=1, ptype=3, packet_id=pid,
            size_bytes=40, airtime_s=0.05,
        ))
        store.add_packet_record(PacketRecord(
            node=2, seq=pid, timestamp=pid + 0.5, direction=Direction.IN,
            src=1, dst=2, next_hop=2, prev_hop=1, ptype=3, packet_id=pid,
            size_bytes=40, rssi_dbm=-105.0, snr_db=6.0,
        ))
    for node in (1, 2):
        store.add_status_record(StatusRecord(
            node=node, seq=0, timestamp=10.0, uptime_s=10.0, queue_depth=1,
            route_count=1, neighbor_count=1, battery_v=3.8, tx_frames=3,
            tx_airtime_s=0.15, retransmissions=0, drops=0, duty_utilisation=0.02,
            originated=3, delivered=0, forwarded=0,
            neighbors=(NeighborObservation(3 - node, -105.0, 6.0, 3),),
        ))
        store.note_batch(node, received_at=10.0, dropped_records=0)


@pytest.fixture
def dashboard():
    store = MetricsStore()
    populate(store)
    return Dashboard(store, report_interval_s=60.0)


class TestPanels:
    def test_node_rows(self, dashboard):
        rows = dashboard.node_rows(now=20.0)
        assert [row["node"] for row in rows] == [1, 2]
        assert rows[0]["last_seen_age_s"] == pytest.approx(10.0)
        assert rows[0]["battery_v"] == pytest.approx(3.8)
        assert rows[0]["health"] is not None

    def test_link_rows(self, dashboard):
        rows = dashboard.link_rows()
        assert len(rows) == 1
        row = rows[0]
        assert (row["tx"], row["rx"]) == (1, 2)
        assert row["rssi_mean"] == pytest.approx(-105.0)
        assert row["frames"] == 3

    def test_pdr_rows(self, dashboard):
        rows = dashboard.pdr_rows()
        assert len(rows) == 1
        assert rows[0]["pdr"] == pytest.approx(1.0)
        assert rows[0]["latency_mean_s"] == pytest.approx(0.5)


class TestRenderers:
    def test_text_dashboard_contains_panels(self, dashboard):
        text = dashboard.render_text(now=20.0)
        for heading in ("[nodes]", "[links]", "[delivery]", "[traffic composition]", "[alerts]"):
            assert heading in text
        assert "100.0%" in text  # the PDR

    def test_dot_output_is_valid_digraph(self, dashboard):
        dot = dashboard.render_dot()
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "n1 -> n2" in dot or "n2 -> n1" in dot

    def test_json_document_structure(self, dashboard):
        document = dashboard.to_json_dict(now=20.0)
        for key in ("now", "network_health", "network_pdr", "nodes", "links", "delivery", "composition", "alerts"):
            assert key in document
        assert document["network_pdr"] == pytest.approx(1.0)

    def test_default_alert_rules_follow_report_interval(self):
        # 230 s of silence is less than one 300 s report interval.
        store = MetricsStore()
        store.note_batch(1, received_at=0.0, dropped_records=0)
        dashboard = Dashboard(store, report_interval_s=300.0)
        assert dashboard.to_json_dict(now=230.0)["alerts"] == []

    def test_empty_store_renders_without_error(self):
        dashboard = Dashboard(MetricsStore())
        text = dashboard.render_text(now=0.0)
        assert "[nodes]" in text
        assert dashboard.to_json_dict(now=0.0)["nodes"] == []


class TestTableFormatter:
    def test_alignment(self):
        table = _format_table(["a", "long"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert lines[0].startswith("a  ")
        assert all(len(line) >= 6 for line in lines)

    def test_empty_rows(self):
        table = _format_table(["x"], [])
        assert "x" in table
