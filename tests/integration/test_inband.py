"""Integration: in-band telemetry (telemetry rides the mesh to a gateway)."""

import pytest

from repro.mesh.packet import PacketType
from repro.scenario.config import MonitorMode, ScenarioConfig, WorkloadSpec
from repro.scenario.runner import run_scenario

CONFIG = ScenarioConfig(
    seed=21,
    n_nodes=9,
    spreading_factor=9,
    monitor_mode=MonitorMode.IN_BAND,
    report_interval_s=120.0,
    warmup_s=900.0,
    duration_s=1200.0,
    cooldown_s=120.0,
    workload=WorkloadSpec(kind="periodic", interval_s=180.0, payload_bytes=24),
    # Two tests read TELEMETRY fragments out of the kept trace events.
    capture_trace=True,
)


@pytest.fixture(scope="module")
def result():
    return run_scenario(CONFIG)


class TestInBandTelemetry:
    def test_bridge_received_batches(self, result):
        assert result.bridge is not None
        assert result.bridge.batches_bridged > 5

    def test_server_has_records_from_remote_nodes(self, result):
        reporting = set(result.store.nodes())
        # The gateway reports out-of-band; at least most remote nodes must
        # have gotten batches through the mesh.
        assert CONFIG.gateway in reporting
        remote = reporting - {CONFIG.gateway}
        assert len(remote) >= 6

    def test_telemetry_frames_visible_on_mesh(self, result):
        # Check via the trace: TELEMETRY fragments were originated.
        telemetry_origins = [
            event
            for event in result.trace.events(kind="mesh.frag_origin")
            if event.data.get("ptype") == int(PacketType.TELEMETRY)
        ]
        assert telemetry_origins

    def test_monitoring_airtime_overhead_nonzero(self, result):
        # In-band monitoring must cost LoRa airtime: TELEMETRY frames are on
        # the air (visible in the type breakdown of the MAC layer).
        telemetry_frames = sum(
            1
            for event in result.trace.events(kind="mesh.frag_origin")
            if event.data.get("ptype") == int(PacketType.TELEMETRY)
        )
        assert telemetry_frames > 0

    def test_delivery_is_at_most_once(self, result):
        # No retry machinery in-band: the server never sees duplicates from
        # in-band nodes (dedup counter only counts gateway OOB retries).
        assert result.server.stats.duplicates == 0

    def test_substantial_fraction_arrives_despite_duty_pressure(self, result):
        # An SF9 mesh runs close to the EU868 1 % duty budget even before
        # telemetry; in-band shipping is therefore lossy (at-most-once, no
        # end-to-end retries).  That fidelity gap versus out-of-band is the
        # T3 finding — here we only require that a substantial fraction
        # still arrives.
        ratio = result.telemetry_delivery_ratio()
        assert 0.35 < ratio <= 1.0

    def test_clients_do_not_capture_own_telemetry(self, result):
        from repro.monitor.records import Direction
        telemetry_records = list(
            result.store.packet_records(ptype=int(PacketType.TELEMETRY))
        )
        assert telemetry_records == []


class TestReliableInBand:
    @pytest.fixture(scope="class")
    def reliable_result(self):
        return run_scenario(CONFIG.with_overrides(
            monitor_mode=MonitorMode.IN_BAND_RELIABLE,
        ))

    def test_end_to_end_acks_recover_losses(self, reliable_result, result):
        reliable_ratio = reliable_result.telemetry_delivery_ratio()
        plain_ratio = result.telemetry_delivery_ratio()
        assert reliable_ratio > plain_ratio
        assert reliable_ratio > 0.9

    def test_messengers_acked_batches(self, reliable_result):
        stats = [
            reliable_result.messengers[address].stats
            for address in reliable_result.messengers
            if address != CONFIG.gateway
        ]
        assert sum(s.delivered for s in stats) > 10

    def test_retry_duplicates_absorbed_by_dedup(self, reliable_result):
        # Whenever a retry fired after the original actually arrived, the
        # server deduplicated it; duplicates never reach the store twice.
        server = reliable_result.server
        stats = [
            reliable_result.messengers[address].stats
            for address in reliable_result.messengers
        ]
        retries = sum(s.retries for s in stats)
        if retries:
            assert server.stats.duplicates >= 0  # absorbed, not stored
        # Record seqs in the store are unique per node.
        for node in reliable_result.store.nodes():
            seqs = [r.seq for r in reliable_result.store.packet_records(node=node)]
            assert len(seqs) == len(set(seqs))


@pytest.mark.parametrize(
    "mode", [MonitorMode.IN_BAND, MonitorMode.IN_BAND_RELIABLE], ids=lambda mode: mode.value
)
def test_gateway_reports_into_the_scenario_network(mode):
    # The gateway ships its own records out-of-band as JSON, which names
    # its network; they must land in the scenario's network, beside the
    # in-band nodes' records the bridge attributes there.
    config = ScenarioConfig(
        seed=3, n_nodes=9, monitor_mode=mode, network_id="campus-a",
        warmup_s=300.0, duration_s=600.0, cooldown_s=60.0,
        workload=WorkloadSpec(kind="periodic", interval_s=120.0),
    )
    with run_scenario(config) as result:
        assert result.server.networks() == ["campus-a"]
        assert config.gateway in result.store.nodes()
