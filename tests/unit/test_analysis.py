"""Unit tests for the analysis layer (reconstruction, comparison, anomaly,
report)."""

import math
import random

import pytest

from repro.analysis.anomaly import detect_anomalies
from repro.analysis.compare import (
    PdrComparison,
    link_rssi_error,
    pdr_estimation_error,
    topology_accuracy,
    true_link_set,
)
from repro.analysis.reconstruct import reconstruct_topology, reconstructed_adjacency
from repro.analysis.report import ExperimentReport
from repro.errors import ConfigurationError
from repro.monitor.records import (
    Direction,
    NeighborObservation,
    PacketRecord,
    StatusRecord,
)
from repro.monitor.storage import MetricsStore
from repro.phy.link import LinkModel, PathLossParams
from repro.phy.params import LoRaParams
from repro.sim.topology import Topology


def in_record(node, seq, prev_hop, rssi=-105.0, packet_id=0, ts=0.0):
    return PacketRecord(
        node=node, seq=seq, timestamp=ts, direction=Direction.IN,
        src=prev_hop, dst=node, next_hop=node, prev_hop=prev_hop, ptype=3,
        packet_id=packet_id, size_bytes=40, rssi_dbm=rssi, snr_db=5.0,
    )


def status_with_neighbors(node, neighbors, seq=0):
    return StatusRecord(
        node=node, seq=seq, timestamp=float(seq), uptime_s=1.0, queue_depth=0,
        route_count=0, neighbor_count=len(neighbors), battery_v=3.7, tx_frames=0,
        tx_airtime_s=0.0, retransmissions=0, drops=0, duty_utilisation=0.0,
        originated=0, delivered=0, forwarded=0, neighbors=tuple(neighbors),
    )


class TestReconstruct:
    def test_status_evidence(self):
        store = MetricsStore()
        store.add_status_record(
            status_with_neighbors(2, [NeighborObservation(1, -100.0, 5.0, 3)])
        )
        links = reconstruct_topology(store)
        assert (1, 2) in links
        assert links[(1, 2)].evidence == "status"

    def test_packet_evidence(self):
        store = MetricsStore()
        store.add_packet_record(in_record(node=2, seq=0, prev_hop=1))
        links = reconstruct_topology(store)
        assert links[(1, 2)].evidence == "packets"

    def test_both_evidence_streams_merge(self):
        store = MetricsStore()
        store.add_status_record(
            status_with_neighbors(2, [NeighborObservation(1, -100.0, 5.0, 3)])
        )
        store.add_packet_record(in_record(node=2, seq=0, prev_hop=1))
        assert reconstruct_topology(store)[(1, 2)].evidence == "both"

    def test_min_frames_filters_flaky_packet_links(self):
        store = MetricsStore()
        store.add_packet_record(in_record(node=2, seq=0, prev_hop=1))
        assert (1, 2) not in reconstruct_topology(store, min_frames=2)

    def test_adjacency_view(self):
        store = MetricsStore()
        store.add_packet_record(in_record(node=3, seq=0, prev_hop=1))
        store.add_packet_record(in_record(node=3, seq=1, prev_hop=2))
        assert reconstructed_adjacency(store) == {3: [1, 2]}


class TestCompare:
    def make_world(self):
        topology = Topology(positions={1: (0, 0), 2: (100, 0), 3: (4000, 0)})
        link_model = LinkModel(PathLossParams(shadowing_sigma_db=0.0), random.Random(1))
        params = LoRaParams(spreading_factor=9)
        return topology, link_model, params

    def test_true_link_set_respects_range(self):
        topology, link_model, params = self.make_world()
        links = true_link_set(topology, link_model, params)
        assert (1, 2) in links and (2, 1) in links
        assert (1, 3) not in links

    def test_perfect_reconstruction_scores_one(self):
        topology, link_model, params = self.make_world()
        store = MetricsStore()
        store.add_packet_record(in_record(node=2, seq=0, prev_hop=1))
        store.add_packet_record(in_record(node=1, seq=0, prev_hop=2))
        accuracy = topology_accuracy(store, topology, link_model, params)
        assert accuracy.precision == 1.0 and accuracy.recall == 1.0 and accuracy.f1 == 1.0

    def test_missing_links_reduce_recall(self):
        topology, link_model, params = self.make_world()
        store = MetricsStore()
        store.add_packet_record(in_record(node=2, seq=0, prev_hop=1))
        accuracy = topology_accuracy(store, topology, link_model, params)
        assert accuracy.recall == pytest.approx(0.5)
        assert accuracy.precision == 1.0

    def test_phantom_links_reduce_precision(self):
        topology, link_model, params = self.make_world()
        store = MetricsStore()
        store.add_packet_record(in_record(node=2, seq=0, prev_hop=1))
        store.add_packet_record(in_record(node=1, seq=0, prev_hop=2))
        store.add_packet_record(in_record(node=3, seq=0, prev_hop=1))  # impossible link
        accuracy = topology_accuracy(store, topology, link_model, params)
        assert accuracy.precision == pytest.approx(2 / 3)

    def test_link_rssi_error(self):
        topology, link_model, params = self.make_world()
        store = MetricsStore()
        model_rssi = link_model.received_power_dbm(14.0, 100.0, 1, 2)
        store.add_packet_record(in_record(node=2, seq=0, prev_hop=1, rssi=model_rssi - 2.0))
        errors = link_rssi_error(store, topology, link_model, params)
        assert errors[(1, 2)] == pytest.approx(2.0)

    def test_pdr_estimation_error(self):
        store = MetricsStore()
        store.add_packet_record(PacketRecord(
            node=1, seq=0, timestamp=0.0, direction=Direction.OUT,
            src=1, dst=2, next_hop=2, prev_hop=1, ptype=3, packet_id=0,
            size_bytes=40, airtime_s=0.05,
        ))
        store.add_packet_record(in_record(node=2, seq=0, prev_hop=1, packet_id=0))
        comparison = pdr_estimation_error(store, true_sent=2, true_delivered=1)
        assert comparison.observed_pdr == pytest.approx(1.0)
        assert comparison.true_pdr == pytest.approx(0.5)
        assert comparison.absolute_error == pytest.approx(0.5)

    def test_pdr_comparison_nan_safe(self):
        comparison = PdrComparison(0, 0, 0, 0)
        assert math.isnan(comparison.true_pdr)
        assert math.isnan(comparison.absolute_error)


class TestAnomaly:
    def make_series(self, values):
        return [{"ts": float(index), "x": value} for index, value in enumerate(values)]

    def test_flat_series_has_no_anomalies(self):
        series = self.make_series([5.0] * 30)
        assert detect_anomalies(series, "x", window=5) == []

    def test_step_change_detected(self):
        series = self.make_series([5.0] * 20 + [50.0] + [5.0] * 5)
        anomalies = detect_anomalies(series, "x", window=5)
        assert any(a.index == 20 for a in anomalies)
        spike = [a for a in anomalies if a.index == 20][0]
        assert spike.value == 50.0
        assert spike.z_score > 3

    def test_noisy_series_tolerated(self):
        rng = random.Random(1)
        series = self.make_series([10.0 + rng.gauss(0, 1) for _ in range(100)])
        anomalies = detect_anomalies(series, "x", window=10, threshold=4.0)
        assert len(anomalies) <= 2

    def test_short_series_yields_nothing(self):
        assert detect_anomalies(self.make_series([1.0, 2.0]), "x", window=5) == []

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            detect_anomalies(self.make_series([1.0] * 10), "x", window=1)


class TestReport:
    def test_render_contains_rows(self):
        report = ExperimentReport(
            experiment_id="T1", title="sizes", expectation="grows",
            headers=["a", "b"],
        )
        report.add_row("x", 1)
        report.add_row("y", 22)
        text = report.render()
        assert "T1" in text and "grows" in text
        assert "x" in text and "22" in text

    def test_row_width_mismatch_rejected(self):
        report = ExperimentReport("T1", "t", "e", headers=["a"])
        with pytest.raises(ValueError):
            report.add_row("x", "y")

    def test_markdown_table(self):
        report = ExperimentReport("F2", "fidelity", "flat", headers=["col"])
        report.add_row("v")
        report.add_note("a note")
        markdown = report.render_markdown()
        assert "### F2" in markdown
        assert "| col |" in markdown
        assert "*Note:* a note" in markdown
