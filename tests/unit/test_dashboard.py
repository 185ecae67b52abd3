"""Unit tests for the dashboard renderers."""

import json

import pytest

from repro.monitor.aggregate import SortedList
from repro.monitor.dashboard import Dashboard, _format_table
from repro.monitor.records import (
    Direction,
    NeighborObservation,
    PacketRecord,
    StatusRecord,
)
from repro.monitor.server import MonitorServer
from repro.monitor.storage import MetricsStore
from repro.monitor.webview import render_html


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
    return Dashboard(store, report_interval_s=60.0, monitor_server=MonitorServer(store=store))


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
        server = MonitorServer(store=store, report_interval_s=300.0)
        server.sweep_alerts(230.0)
        dashboard = Dashboard(store, report_interval_s=300.0, monitor_server=server)
        assert dashboard.to_json_dict(now=230.0)["alerts"] == []

    def test_a_store_only_view_has_no_alerts_panel(self):
        # The alerts live in the server's engine; a dashboard keeps none.
        store = MetricsStore()
        populate(store)
        dashboard = Dashboard(store, report_interval_s=60.0)
        assert not hasattr(dashboard, "alerts")
        assert dashboard.to_json_dict(now=20_000.0)["alerts"] is None
        assert "[alerts]" not in dashboard.render_text(now=20_000.0)
        assert 'id="alerts"' not in render_html(dashboard, now=20_000.0)

    def test_empty_store_renders_without_error(self):
        dashboard = Dashboard(MetricsStore())
        text = dashboard.render_text(now=0.0)
        assert "[nodes]" in text
        assert dashboard.to_json_dict(now=0.0)["nodes"] == []


#: ``render_text`` of the ``populate()`` store with a server panel, byte
#: for byte: at t=20 s, and at t=20000 s when both nodes fall silent and
#: the server's sweep at that time raised their alerts.
TEXT_AT_20 = "\n".join([
    "=== LoRa mesh monitor @ t=20s ===",
    "",
    "[nodes]",
    "node  seen  uptime  batt   queue  routes  neigh  duty  health",
    "----  ----  ------  -----  -----  ------  -----  ----  ------",
    "1     10s   10s     3.80V  1      1       1      2.0%  95    ",
    "2     10s   10s     3.80V  1      1       1      2.0%  92    ",
    "",
    "[links]  (tx -> rx as heard by rx)",
    "tx  rx  frames  rssi       snr  ",
    "--  --  ------  ---------  -----",
    "1   2   3       -105.0dBm  6.0dB",
    "",
    "[delivery]",
    "src  dst  sent  delivered  pdr     lat-mean  lat-p95",
    "---  ---  ----  ---------  ------  --------  -------",
    "1    2    3     3          100.0%  0.50s     0.50s  ",
    "",
    "[traffic composition]",
    "type  frames  bytes  airtime",
    "----  ------  -----  -------",
    "DATA  3       120    0.15s  ",
    "",
    "[server]  (self-metrics)",
    "batches  records  dedup  decode-err  flushes  flush-max",
    "-------  -------  -----  ----------  -------  ---------",
    "0        0        0      0           0        0.00ms   ",
    "",
    "[alerts]  0 active",
])
TEXT_AT_20000 = "\n".join([
    "=== LoRa mesh monitor @ t=20000s ===",
    "",
    "[nodes]",
    "node  seen    uptime  batt   queue  routes  neigh  duty  health",
    "----  ------  ------  -----  -----  ------  -----  ----  ------",
    "1     19990s  10s     3.80V  1      1       1      2.0%  35    ",
    "2     19990s  10s     3.80V  1      1       1      2.0%  35    ",
    "",
    "[links]  (tx -> rx as heard by rx)",
    "tx  rx  frames  rssi       snr  ",
    "--  --  ------  ---------  -----",
    "1   2   3       -105.0dBm  6.0dB",
    "",
    "[delivery]",
    "src  dst  sent  delivered  pdr     lat-mean  lat-p95",
    "---  ---  ----  ---------  ------  --------  -------",
    "1    2    3     3          100.0%  0.50s     0.50s  ",
    "",
    "[traffic composition]",
    "type  frames  bytes  airtime",
    "----  ------  -----  -------",
    "DATA  3       120    0.15s  ",
    "",
    "[server]  (self-metrics)",
    "batches  records  dedup  decode-err  flushes  flush-max",
    "-------  -------  -----  ----------  -------  ---------",
    "0        0        0      0           0        0.00ms   ",
    "",
    "[alerts]  2 active",
    "  CRITICAL silent_node    node 1: no telemetry for 19990s (since t=20000s)",
    "  CRITICAL silent_node    node 2: no telemetry for 19990s (since t=20000s)",
])


class TestTextSnapshot:
    @pytest.mark.parametrize(
        "now, expected",
        [(20.0, TEXT_AT_20), (20_000.0, TEXT_AT_20000)],
        ids=["t20", "t20000"],
    )
    def test_render_text_is_byte_identical(self, now, expected):
        store = MetricsStore()
        populate(store)
        server = MonitorServer(store=store)
        server.sweep_alerts(now)
        dashboard = Dashboard(store, report_interval_s=60.0, monitor_server=server)
        assert dashboard.render_text(now) == expected


class CountingStore(MetricsStore):
    """A store that counts full scans of its packet records."""

    def __init__(self):
        super().__init__()
        self.scans = 0

    def packet_records(self, *args, **kwargs):
        self.scans += 1
        return super().packet_records(*args, **kwargs)


def ring_store(nodes):
    """``nodes`` nodes in a ring; each sends the same three packets to the next."""
    store = CountingStore()
    for node in range(1, nodes + 1):
        dst = node % nodes + 1
        for pid in range(3):
            store.add_packet_record(PacketRecord(
                node=node, seq=2 * pid, timestamp=float(pid), direction=Direction.OUT,
                src=node, dst=dst, next_hop=dst, prev_hop=node, ptype=3,
                packet_id=pid, size_bytes=40, airtime_s=0.05,
            ))
            store.add_packet_record(PacketRecord(
                node=dst, seq=2 * pid + 1, timestamp=pid + 0.5, direction=Direction.IN,
                src=node, dst=dst, next_hop=dst, prev_hop=node, ptype=3,
                packet_id=pid, size_bytes=40, rssi_dbm=-105.0, snr_db=6.0,
            ))
        store.add_status_record(StatusRecord(
            node=node, seq=0, timestamp=10.0, uptime_s=10.0, queue_depth=1,
            route_count=1, neighbor_count=1, battery_v=3.8, tx_frames=3,
            tx_airtime_s=0.15, retransmissions=0, drops=0, duty_utilisation=0.02,
            originated=3, delivered=0, forwarded=0,
        ))
        store.note_batch(node, received_at=10.0, dropped_records=0)
    return store


def scans_per_view(nodes):
    """Packet-record scans of one page view, per renderer."""
    store = ring_store(nodes)
    dashboard = Dashboard(store, report_interval_s=60.0)
    views = {
        "to_json_dict": lambda: dashboard.to_json_dict(20.0),
        "render_text": lambda: dashboard.render_text(20.0),
        "render_html": lambda: render_html(dashboard, 20.0),
    }
    scans = {}
    for name, view in views.items():
        store.scans = 0
        view()
        scans[name] = store.scans
    return scans


class TestScansPerView:
    def test_scans_do_not_grow_with_network_size(self):
        small, large = scans_per_view(4), scans_per_view(64)
        assert small == large
        assert max(large.values()) == 0


def add_interval(store, interval, seqs):
    """One report interval of identical traffic in a 4-node ring: each
    node sends three DATA packets to the next one, which receives them,
    and reports status at the end of the interval."""
    start = interval * 60.0
    for node in range(1, 5):
        dst = node % 4 + 1
        for index in range(3):
            packet_id = (interval * 3 + index) & 0xFFFF
            for observer, direction in ((node, Direction.OUT), (dst, Direction.IN)):
                seq = seqs.get(observer, 0)
                seqs[observer] = seq + 1
                store.add_packet_record(PacketRecord(
                    node=observer, seq=seq, timestamp=start + index + 0.5 * (observer == dst),
                    direction=direction, src=node, dst=dst, next_hop=dst, prev_hop=node,
                    ptype=3, packet_id=packet_id, size_bytes=40,
                    airtime_s=0.05 if direction is Direction.OUT else None,
                    rssi_dbm=-100.0 - index if direction is Direction.IN else None,
                    snr_db=5.0 if direction is Direction.IN else None,
                ))
        store.add_status_record(StatusRecord(
            node=node, seq=interval, timestamp=start + 59.0, uptime_s=start + 59.0,
            queue_depth=1, route_count=3, neighbor_count=2, battery_v=3.8,
            tx_frames=3 * interval, tx_airtime_s=0.15 * interval, retransmissions=0,
            drops=0, duty_utilisation=0.02, originated=3 * interval, delivered=0,
            forwarded=0,
        ))
        store.note_batch(node, received_at=start + 59.0, dropped_records=0)


#: Delivery events one interval brings: 4 nodes x 3 packets x (send, delivery).
EVENTS_PER_INTERVAL = 24


def events_per_view(intervals, monkeypatch):
    """Delivery events the window read of the last page view touches,
    with a view at the end of each of ``intervals`` intervals, and the
    store scans that view made."""
    store = CountingStore()
    dashboard = Dashboard(store, report_interval_s=60.0)
    seqs = {}
    for interval in range(intervals - 1):
        add_interval(store, interval, seqs)
        dashboard.to_json_dict(interval * 60.0 + 59.0)
    add_interval(store, intervals - 1, seqs)
    touched = []
    between = SortedList.between

    def counting_between(self, low, high):
        for event in between(self, low, high):
            touched.append(event)
            yield event

    store.scans = 0
    with monkeypatch.context() as patch:
        patch.setattr(SortedList, "between", counting_between)
        dashboard.to_json_dict(intervals * 60.0 - 1.0)
    return len(touched), store.scans


class TestViewCostFlatInHistory:
    def test_entries_read_do_not_grow_with_history(self, monkeypatch):
        """A view's window read touches the interval that entered the
        30-minute window and, once it is full, the one that left it, at
        any history length; a scan of the window touched every event in
        it (48 / 720 / 720 at 2 / 40 / 80 intervals)."""
        (touched_2, scans_2), (touched_40, scans_40), (touched_80, scans_80) = (
            events_per_view(intervals, monkeypatch) for intervals in (2, 40, 80)
        )
        assert scans_2 == scans_40 == scans_80 == 0
        assert touched_2 == EVENTS_PER_INTERVAL
        assert touched_40 == touched_80 == 2 * EVENTS_PER_INTERVAL


class TestDocumentSnapshot:
    def test_a_document_is_unchanged_by_later_ingest(self):
        store = MetricsStore()
        seqs = {}
        add_interval(store, 0, seqs)
        dashboard = Dashboard(store, report_interval_s=60.0)
        document = dashboard.to_json_dict(60.0)
        before = json.dumps(document, sort_keys=True)
        add_interval(store, 1, seqs)
        store.add_packet_record(PacketRecord(
            node=3, seq=seqs[3], timestamp=61.0, direction=Direction.IN, src=1, dst=3,
            next_hop=3, prev_hop=1, ptype=3, packet_id=99, size_bytes=40,
            rssi_dbm=-90.0, snr_db=7.0,
        ))
        later = dashboard.to_json_dict(120.0)
        assert json.dumps(document, sort_keys=True) == before
        assert later["links"] != document["links"]
        assert later["delivery"] != document["delivery"]
        assert len(later["links"]) == len(document["links"]) + 1


class TestTableFormatter:
    def test_alignment(self):
        table = _format_table(["a", "long"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert lines[0].startswith("a  ")
        assert all(len(line) >= 6 for line in lines)

    def test_empty_rows(self):
        table = _format_table(["x"], [])
        assert "x" in table
