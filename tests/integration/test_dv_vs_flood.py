"""Integration: distance-vector vs managed flooding on identical scenarios.

Backs experiment F4's expected shape: flooding delivers without routing
state but burns more airtime (duplicates), while DV is airtime-lean once
converged.
"""

import pytest

from repro.scenario.config import ScenarioConfig, WorkloadSpec
from repro.scenario.runner import run_scenario

BASE = ScenarioConfig(
    seed=51,
    n_nodes=9,
    spreading_factor=9,
    warmup_s=600.0,
    duration_s=1200.0,
    report_interval_s=120.0,
    workload=WorkloadSpec(kind="periodic", interval_s=240.0, payload_bytes=24),
)


@pytest.fixture(scope="module")
def dv_result():
    return run_scenario(BASE.with_overrides(protocol="dv"))


@pytest.fixture(scope="module")
def flood_result():
    return run_scenario(BASE.with_overrides(protocol="flood"))


class TestBothDeliver:
    def test_dv_delivers(self, dv_result):
        assert dv_result.truth.msg_pdr > 0.85

    def test_flood_delivers(self, flood_result):
        assert flood_result.truth.msg_pdr > 0.85


class TestCostDifference:
    def test_flooding_transmits_more_data_frames(self, dv_result, flood_result):
        def data_tx(result):
            return result.trace.count("mesh.forward")
        # Every node relays in flooding; DV forwards along one path.
        assert data_tx(flood_result) > data_tx(dv_result)

    def test_flooding_sees_duplicates(self, flood_result):
        duplicates = sum(node.counters.duplicates for node in flood_result.nodes.values())
        assert duplicates > 0

    def test_dv_uses_acks_flood_does_not(self, dv_result, flood_result):
        dv_acks = sum(node.mac.stats.acks_sent for node in dv_result.nodes.values())
        flood_acks = sum(node.mac.stats.acks_sent for node in flood_result.nodes.values())
        assert dv_acks > 0
        assert flood_acks == 0

    def test_flood_needs_no_routing_state(self, flood_result):
        # Flooding nodes never broadcast ROUTE frames, so the monitoring
        # store contains no ROUTE observations at all.
        from repro.mesh.packet import PacketType
        route_records = list(
            flood_result.store.packet_records(ptype=int(PacketType.ROUTE))
        )
        assert route_records == []
