"""Integration: full scenario runs with out-of-band monitoring.

These exercise the complete pipeline the paper describes: mesh traffic
flows, every node's client observes its packets, batches reach the server,
and the dashboard's numbers agree with simulator ground truth.
"""

import math
from dataclasses import replace

import pytest

from repro.analysis.compare import pdr_estimation_error, topology_accuracy
from repro.api import JsonCodec, MonitorServer, SqliteMetricsStore
from repro.monitor import metrics
from repro.monitor.dashboard import Dashboard
from repro.scenario.config import MonitorMode, ScenarioConfig, WorkloadSpec
from repro.scenario.runner import Scenario, run_scenario

BASE = ScenarioConfig(
    seed=11,
    n_nodes=9,
    spreading_factor=9,
    warmup_s=900.0,
    duration_s=1200.0,
    cooldown_s=60.0,
    report_interval_s=60.0,
    workload=WorkloadSpec(kind="periodic", interval_s=90.0, payload_bytes=24),
)


@pytest.fixture(scope="module")
def result():
    return run_scenario(BASE)


class TestMeshBehaviour:
    def test_traffic_was_generated_and_mostly_delivered(self, result):
        assert result.truth.total_msg_sent > 50
        assert result.truth.msg_pdr > 0.9

    def test_multi_hop_forwarding_happened(self, result):
        forwarded = sum(node.counters.forwarded for node in result.nodes.values())
        assert forwarded > 0

    def test_collisions_happened_but_bounded(self, result):
        assert result.truth.phy_collisions > 0
        assert result.truth.phy_collisions < result.truth.phy_rx


class TestTelemetryPipeline:
    def test_all_nodes_reported(self, result):
        assert result.store.nodes() == sorted(result.nodes)

    def test_lossless_uplink_delivers_every_record(self, result):
        assert result.telemetry_delivery_ratio() == pytest.approx(1.0)
        assert result.server.stats.duplicates == 0

    def test_out_records_match_mac_counters(self, result):
        # Every physical transmission of a non-telemetry frame produced an
        # OUT record (telemetry frames are filtered by default config).
        # Frames transmitted after the final flush stay in the client
        # buffer, so the stored count may trail by that backlog.
        from repro.monitor.records import Direction
        for address, node in result.nodes.items():
            recorded = sum(
                1 for _ in result.store.packet_records(
                    node=address, direction=Direction.OUT
                )
            )
            backlog = result.clients[address].backlog
            assert recorded <= node.mac.stats.tx_frames
            assert recorded >= node.mac.stats.tx_frames - backlog

    def test_status_records_periodic(self, result):
        duration = BASE.warmup_s + BASE.duration_s
        expected = duration / BASE.report_interval_s
        for address in result.nodes:
            count = result.store.status_record_count(node=address)
            assert expected * 0.7 <= count <= expected * 1.3


class TestUplinkCost:
    def test_each_submitted_batch_is_encoded_once(self, monkeypatch):
        # The uplink counts the bytes it sends; nothing else may encode
        # a batch just to measure it.
        encoded = []
        encode = JsonCodec.encode

        def counting_encode(codec, batch):
            encoded.append(batch)
            return encode(codec, batch)

        monkeypatch.setattr(JsonCodec, "encode", counting_encode)
        config = BASE.with_overrides(n_nodes=4, warmup_s=300.0, duration_s=300.0)
        with run_scenario(config) as short:
            submitted = sum(
                uplink.stats.batches_submitted for uplink in short.uplinks.values()
            )
        assert submitted > 0
        assert len(encoded) == submitted


class TestReportedDrops:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_resent_batches_count_their_drops_once(self, backend, tmp_path):
        # Client buffers of 8 records overflow, and at 30 % uplink loss
        # many batches lose their response and are resent: each resend
        # used to add its drops to the node's total again.
        config = ScenarioConfig(
            seed=3, n_nodes=9, warmup_s=600.0, duration_s=1200.0, cooldown_s=120.0,
            uplink_loss=0.3, workload=WorkloadSpec(kind="periodic", interval_s=20.0),
        )
        path = str(tmp_path / "drops.sqlite")
        server = MonitorServer(store=SqliteMetricsStore(path)) if backend == "sqlite" else None
        scenario = Scenario(config, server=server)
        for client in scenario.clients.values():
            client.config = replace(client.config, max_buffer_records=8)
        result = scenario.run()
        # Capture nothing more, so each client's count is final, and give
        # every client a few report intervals to get a batch through.
        for client in result.clients.values():
            client.config = replace(client.config, capture_in=False, capture_out=False)
        result.sim.run(until=result.sim.now + 20 * config.report_interval_s)
        dropped = {node: client.stats.records_dropped for node, client in result.clients.items()}
        assert sum(dropped.values()) > 10_000
        retried = sum(client.stats.batches_failed for client in result.clients.values())
        assert retried > 50
        store = result.store
        if backend == "sqlite":
            server.close()
            store = SqliteMetricsStore(path)
        try:
            assert {node: store.reported_drops(node) for node in dropped} == dropped
        finally:
            store.close()


class TestDashboardFidelity:
    def test_observed_pdr_matches_ground_truth(self, result):
        comparison = pdr_estimation_error(
            result.store,
            true_sent=result.truth.total_frag_sent,
            true_delivered=result.truth.total_frag_delivered,
        )
        assert comparison.absolute_error < 0.02

    def test_topology_reconstruction_is_accurate(self, result):
        accuracy = topology_accuracy(
            result.store, result.topology, result.link_model,
            result.nodes[1].params, min_frames=3,
        )
        assert accuracy.recall > 0.9
        assert accuracy.precision > 0.9

    def test_link_rssi_estimates_close_to_model(self, result):
        from repro.analysis.compare import link_rssi_error
        errors = link_rssi_error(
            result.store, result.topology, result.link_model, result.nodes[1].params
        )
        assert errors
        mean_error = sum(errors.values()) / len(errors)
        assert mean_error < 1.0  # no fast fading configured -> near exact

    def test_dashboard_renders_and_reports_health(self, result):
        dashboard = Dashboard(result.store, report_interval_s=BASE.report_interval_s)
        text = dashboard.render_text(result.sim.now)
        assert "[nodes]" in text
        document = dashboard.to_json_dict(result.sim.now)
        assert len(document["nodes"]) == BASE.n_nodes
        assert document["network_pdr"] > 0.9

    def test_latency_metrics_are_positive(self, result):
        latencies = metrics.delivery_latency(result.store)
        assert latencies
        for stats in latencies.values():
            assert all(sample >= 0 for sample in stats.samples)

    def test_airtime_accounting_consistent(self, result):
        observed = sum(metrics.airtime_by_node(result.store).values())
        actual = result.total_mesh_airtime_s()
        # Telemetry frames are not captured by default, so observed may be
        # slightly below actual; never above.
        assert observed <= actual + 1e-6
        assert observed > actual * 0.9


class TestReproducibility:
    def test_same_seed_same_outcome(self):
        config = BASE.with_overrides(duration_s=600.0, warmup_s=600.0)
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.truth.total_msg_sent == b.truth.total_msg_sent
        assert a.truth.total_msg_delivered == b.truth.total_msg_delivered
        assert a.truth.phy_tx == b.truth.phy_tx
        assert a.store.packet_record_count() == b.store.packet_record_count()

    def test_different_seed_differs(self):
        config = BASE.with_overrides(duration_s=600.0, warmup_s=600.0)
        a = run_scenario(config)
        b = run_scenario(config.with_overrides(seed=99))
        assert a.truth.phy_tx != b.truth.phy_tx
