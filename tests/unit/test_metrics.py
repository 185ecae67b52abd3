"""Unit tests for metric aggregations."""

import math

import pytest

from repro.mesh.packet import PacketType
from repro.monitor import metrics
from repro.monitor.records import Direction, NeighborObservation, PacketRecord, StatusRecord
from repro.monitor.storage import MetricsStore


def out_record(node, seq, packet_id, src=None, dst=9, ts=0.0, attempt=1, ptype=3, airtime=0.05, size=40):
    return PacketRecord(
        node=node, seq=seq, timestamp=ts, direction=Direction.OUT,
        src=src if src is not None else node, dst=dst, next_hop=5, prev_hop=node,
        ptype=ptype, packet_id=packet_id, size_bytes=size,
        airtime_s=airtime, attempt=attempt,
    )


def in_record(node, seq, packet_id, src=1, dst=9, prev_hop=1, ts=0.0, rssi=-110.0, snr=3.0, ptype=3):
    return PacketRecord(
        node=node, seq=seq, timestamp=ts, direction=Direction.IN,
        src=src, dst=dst, next_hop=node, prev_hop=prev_hop, ptype=ptype,
        packet_id=packet_id, size_bytes=40, rssi_dbm=rssi, snr_db=snr,
    )


def status_with_neighbors(node, seq, neighbors):
    return StatusRecord(
        node=node, seq=seq, timestamp=float(seq), uptime_s=1.0, queue_depth=0,
        route_count=0, neighbor_count=len(neighbors), battery_v=3.7, tx_frames=0,
        tx_airtime_s=0.0, retransmissions=0, drops=0, duty_utilisation=0.0,
        originated=0, delivered=0, forwarded=0, neighbors=tuple(neighbors),
    )


@pytest.fixture
def store():
    return MetricsStore()


class TestLinkQuality:
    def test_links_keyed_by_prev_hop_and_observer(self, store):
        store.add_packet_record(in_record(node=2, seq=0, packet_id=1, prev_hop=1, rssi=-100, snr=5))
        store.add_packet_record(in_record(node=2, seq=1, packet_id=2, prev_hop=1, rssi=-110, snr=3))
        store.add_packet_record(in_record(node=3, seq=0, packet_id=3, prev_hop=1, rssi=-120, snr=-2))
        links = metrics.link_quality(store)
        assert set(links) == {(1, 2), (1, 3)}
        assert links[(1, 2)].frames == 2
        assert links[(1, 2)].rssi_mean == pytest.approx(-105.0)
        assert links[(1, 2)].rssi_min == -110 and links[(1, 2)].rssi_max == -100

    def test_out_records_do_not_create_links(self, store):
        store.add_packet_record(out_record(node=1, seq=0, packet_id=1))
        assert metrics.link_quality(store) == {}


class TestPdr:
    def test_pdr_counts_matched_packet_ids(self, store):
        # src 1 sends packets 10,11,12; dst 9 observed only 10 and 12.
        for index, pid in enumerate((10, 11, 12)):
            store.add_packet_record(out_record(node=1, seq=index, packet_id=pid))
        for index, pid in enumerate((10, 12)):
            store.add_packet_record(in_record(node=9, seq=index, packet_id=pid, src=1, dst=9))
        pairs = metrics.pdr_matrix(store)
        pair = pairs[(1, 9)]
        assert pair.sent == 3 and pair.delivered == 2
        assert pair.pdr == pytest.approx(2 / 3)

    def test_retransmissions_not_double_counted(self, store):
        store.add_packet_record(out_record(node=1, seq=0, packet_id=10, attempt=1))
        store.add_packet_record(out_record(node=1, seq=1, packet_id=10, attempt=2))
        assert metrics.pdr_matrix(store)[(1, 9)].sent == 1

    def test_forwarder_transmissions_not_counted_as_sent(self, store):
        # Node 5 forwards a packet originated by node 1.
        store.add_packet_record(out_record(node=5, seq=0, packet_id=10, src=1, dst=9))
        assert (1, 9) not in metrics.pdr_matrix(store) or metrics.pdr_matrix(store)[(1, 9)].sent == 0

    def test_overheard_reception_not_counted_as_delivered(self, store):
        store.add_packet_record(out_record(node=1, seq=0, packet_id=10))
        # Node 5 overhears a packet destined to 9.
        store.add_packet_record(in_record(node=5, seq=0, packet_id=10, src=1, dst=9))
        assert metrics.pdr_matrix(store)[(1, 9)].delivered == 0

    def test_network_pdr_aggregates(self, store):
        store.add_packet_record(out_record(node=1, seq=0, packet_id=1, dst=9))
        store.add_packet_record(out_record(node=2, seq=0, packet_id=2, dst=9, src=2))
        store.add_packet_record(in_record(node=9, seq=0, packet_id=1, src=1, dst=9))
        assert metrics.network_pdr(store) == pytest.approx(0.5)

    def test_network_pdr_empty_is_nan(self, store):
        assert math.isnan(metrics.network_pdr(store))


class TestTrafficAndAirtime:
    def test_traffic_matrix(self, store):
        store.add_packet_record(out_record(node=1, seq=0, packet_id=1, size=40))
        store.add_packet_record(out_record(node=1, seq=1, packet_id=2, size=60))
        cell = metrics.traffic_matrix(store)[(1, 9)]
        assert cell.frames == 2 and cell.bytes == 100

    def test_airtime_by_node_sums(self, store):
        store.add_packet_record(out_record(node=1, seq=0, packet_id=1, airtime=0.1))
        store.add_packet_record(out_record(node=1, seq=1, packet_id=2, airtime=0.2, attempt=2))
        assert metrics.airtime_by_node(store)[1] == pytest.approx(0.3)

    def test_duty_cycle_by_node(self, store):
        store.add_packet_record(out_record(node=1, seq=0, packet_id=1, ts=100.0, airtime=1.0))
        duty = metrics.duty_cycle_by_node(store, window_s=100.0, until=100.0)
        assert duty[1] == pytest.approx(0.01)

    def test_type_breakdown(self, store):
        store.add_packet_record(out_record(node=1, seq=0, packet_id=1, ptype=int(PacketType.HELLO)))
        store.add_packet_record(out_record(node=1, seq=1, packet_id=2, ptype=int(PacketType.DATA)))
        store.add_packet_record(out_record(node=1, seq=2, packet_id=3, ptype=int(PacketType.DATA)))
        rows = {row.name: row for row in metrics.type_breakdown(store)}
        assert rows["DATA"].frames_out == 2
        assert rows["HELLO"].frames_out == 1


class TestLatency:
    def test_latency_from_first_out_to_first_in(self, store):
        store.add_packet_record(out_record(node=1, seq=0, packet_id=1, ts=10.0))
        store.add_packet_record(out_record(node=1, seq=1, packet_id=1, ts=12.0, attempt=2))
        store.add_packet_record(in_record(node=9, seq=0, packet_id=1, ts=13.5))
        stats = metrics.delivery_latency(store)[(1, 9)]
        assert stats.samples == [pytest.approx(3.5)]

    def test_percentile(self, store):
        for pid, (t_out, t_in) in enumerate([(0.0, 1.0), (0.0, 2.0), (0.0, 10.0)]):
            store.add_packet_record(out_record(node=1, seq=pid * 2, packet_id=pid, ts=t_out))
            store.add_packet_record(in_record(node=9, seq=pid, packet_id=pid, ts=t_in))
        stats = metrics.delivery_latency(store)[(1, 9)]
        assert stats.mean == pytest.approx(13 / 3)
        assert stats.percentile(100) == pytest.approx(10.0)
        assert stats.percentile(34) == pytest.approx(2.0)


class TestRouteAndGraph:
    def test_neighbor_graph_uses_latest_status(self, store):
        store.add_status_record(
            status_with_neighbors(2, 0, [NeighborObservation(1, -100.0, 5.0, 10)])
        )
        store.add_status_record(
            status_with_neighbors(2, 1, [NeighborObservation(3, -90.0, 8.0, 4)])
        )
        edges = metrics.neighbor_graph(store)
        assert len(edges) == 1
        assert edges[0].tx == 3 and edges[0].rx == 2

    def test_retransmission_rate(self, store):
        store.add_packet_record(out_record(node=1, seq=0, packet_id=1, attempt=1))
        store.add_packet_record(out_record(node=1, seq=1, packet_id=1, attempt=2))
        store.add_packet_record(out_record(node=1, seq=2, packet_id=2, attempt=1))
        assert metrics.retransmission_rate(store)[1] == pytest.approx(1 / 3)
