"""Unit tests for health scoring."""

import math

import pytest

from repro.api import MonitorServer, RecordBatch, network_tile
from repro.monitor import health
from repro.monitor.records import Direction, PacketRecord, StatusRecord
from repro.monitor.storage import MetricsStore


def status(node=1, seq=0, ts=0.0, battery=3.7, duty=0.01):
    return StatusRecord(
        node=node, seq=seq, timestamp=ts, uptime_s=ts, queue_depth=0,
        route_count=1, neighbor_count=1, battery_v=battery, tx_frames=1,
        tx_airtime_s=0.1, retransmissions=0, drops=0, duty_utilisation=duty,
        originated=0, delivered=0, forwarded=0,
    )


@pytest.fixture
def store():
    return MetricsStore()


class TestNodeHealth:
    def test_fresh_healthy_node_scores_high(self, store):
        store.note_batch(1, received_at=100.0, dropped_records=0)
        store.add_status_record(status(node=1, ts=100.0, battery=4.1, duty=0.01))
        score = health.node_health(store, 1, now=110.0, report_interval_s=60.0)
        assert score.score > 85
        assert score.liveness == pytest.approx(1.0)

    def test_silent_node_liveness_decays(self, store):
        store.note_batch(1, received_at=0.0, dropped_records=0)
        early = health.node_health(store, 1, now=60.0, report_interval_s=60.0)
        late = health.node_health(store, 1, now=600.0, report_interval_s=60.0)
        assert early.liveness == pytest.approx(1.0)
        assert late.liveness == 0.0
        assert late.score < early.score

    def test_delivery_component_from_pdr(self, store):
        store.note_batch(1, received_at=0.0, dropped_records=0)
        for pid in range(4):
            store.add_packet_record(PacketRecord(
                node=1, seq=pid, timestamp=0.0, direction=Direction.OUT,
                src=1, dst=9, next_hop=5, prev_hop=1, ptype=3, packet_id=pid,
                size_bytes=40, airtime_s=0.05,
            ))
        for pid in range(2):
            store.add_packet_record(PacketRecord(
                node=9, seq=pid, timestamp=1.0, direction=Direction.IN,
                src=1, dst=9, next_hop=9, prev_hop=5, ptype=3, packet_id=pid,
                size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
            ))
        score = health.node_health(store, 1, now=10.0)
        assert score.delivery == pytest.approx(0.5)

    def test_missing_components_redistribute_weight(self, store):
        # Only liveness data exists; score should equal liveness * 100.
        store.note_batch(1, received_at=0.0, dropped_records=0)
        score = health.node_health(store, 1, now=30.0, report_interval_s=60.0)
        assert score.delivery is None and score.battery is None
        assert score.score == pytest.approx(100.0)

    def test_unknown_node_is_nan(self, store):
        score = health.node_health(store, 42, now=0.0)
        assert math.isnan(score.score)

    def test_duty_pressure_lowers_score(self, store):
        store.note_batch(1, received_at=0.0, dropped_records=0)
        store.add_status_record(status(node=1, duty=0.0))
        relaxed = health.node_health(store, 1, now=1.0).score

        store2 = MetricsStore()
        store2.note_batch(1, received_at=0.0, dropped_records=0)
        store2.add_status_record(status(node=1, duty=1.0))
        pressured = health.node_health(store2, 1, now=1.0).score
        assert pressured < relaxed

    def test_battery_clamped(self, store):
        store.note_batch(1, received_at=0.0, dropped_records=0)
        store.add_status_record(status(node=1, battery=5.0))
        assert health.node_health(store, 1, now=1.0).battery == 1.0


class TestNetworkHealth:
    def test_covers_all_nodes(self, store):
        for node in (1, 2, 3):
            store.note_batch(node, received_at=0.0, dropped_records=0)
        scores = health.network_health(store, now=10.0)
        assert set(scores) == {1, 2, 3}

    def test_network_score_is_mean(self, store):
        store.note_batch(1, received_at=0.0, dropped_records=0)
        store.note_batch(2, received_at=0.0, dropped_records=0)
        scores = health.network_health(store, now=30.0, report_interval_s=60.0)
        value = health.network_health_score(scores)
        assert value == pytest.approx(100.0)

    def test_empty_network_is_nan(self, store):
        assert math.isnan(health.network_health_score(health.network_health(store, now=0.0)))


class TestTileHealth:
    def test_looped_packet_counts_once(self):
        # A routing loop brings packet 7 back to its origin, so node 1
        # reports it twice as a first-attempt OUT; node 2 receives it once.
        def out(seq):
            return PacketRecord(
                node=1, seq=seq, timestamp=1.0, direction=Direction.OUT,
                src=1, dst=2, next_hop=2, prev_hop=1, ptype=3, packet_id=7,
                size_bytes=40, airtime_s=0.05,
            )

        delivered = PacketRecord(
            node=2, seq=0, timestamp=2.0, direction=Direction.IN,
            src=1, dst=2, next_hop=2, prev_hop=1, ptype=3, packet_id=7,
            size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
        )
        server = MonitorServer(clock=lambda: 10.0)
        assert server.submit(
            RecordBatch(node=1, batch_seq=0, sent_at=1.0, packet_records=(out(0), out(1)))
        ).ok
        assert server.submit(
            RecordBatch(node=2, batch_seq=0, sent_at=2.0, packet_records=(delivered,))
        ).ok
        tile = network_tile(server, "default", now=10.0)
        recomputed = health.network_health_score(health.network_health(server.store, now=10.0))
        assert recomputed == pytest.approx(100.0)
        assert tile["health"] == round(recomputed, 1)
