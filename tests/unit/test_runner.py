"""Unit tests for scenario construction and execution."""

import pytest

from repro.errors import SimulationError
from repro.monitor.uplink import InBandUplink, OutOfBandUplink, ReliableInBandUplink
from repro.scenario.config import (
    Environment,
    MobilitySpec,
    MonitorMode,
    ScenarioConfig,
    WorkloadSpec,
)
from repro.scenario.runner import Scenario, auto_area_m, path_loss_for, run_scenario
from repro.sim.topology import Placement


def quick_config(**overrides):
    defaults = dict(
        seed=44,
        n_nodes=9,
        spreading_factor=7,
        warmup_s=300.0,
        duration_s=300.0,
        cooldown_s=30.0,
        report_interval_s=60.0,
        workload=WorkloadSpec(kind="periodic", interval_s=120.0),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestConstruction:
    def test_builds_all_nodes(self):
        scenario = Scenario(quick_config())
        assert sorted(scenario.nodes) == list(range(1, 10))
        assert scenario.topology.size == 9

    def test_server_uses_scenario_report_interval(self):
        scenario = Scenario(quick_config(report_interval_s=300.0))
        assert scenario.server.report_interval_s == 300.0

    def test_auto_area_scales_with_range(self):
        scenario_sf7 = Scenario(quick_config(spreading_factor=7))
        scenario_sf9 = Scenario(quick_config(spreading_factor=9))
        assert scenario_sf9.area_m > scenario_sf7.area_m

    def test_explicit_area_respected(self):
        scenario = Scenario(quick_config(area_m=123.0))
        assert scenario.area_m == 123.0

    def test_environment_presets(self):
        suburban = path_loss_for(Environment.SUBURBAN)
        urban = path_loss_for(Environment.URBAN)
        rural = path_loss_for(Environment.RURAL)
        assert urban.exponent > suburban.exponent
        assert rural.exponent <= suburban.exponent

    def test_monitor_none_builds_no_clients(self):
        scenario = Scenario(quick_config(monitor_mode=MonitorMode.NONE))
        assert scenario.clients == {}
        assert scenario.store is None

    def test_oob_mode_gives_every_node_an_oob_uplink(self):
        scenario = Scenario(quick_config(monitor_mode=MonitorMode.OUT_OF_BAND))
        assert all(
            isinstance(uplink, OutOfBandUplink) for uplink in scenario.uplinks.values()
        )

    def test_inband_mode_gateway_is_oob_rest_inband(self):
        scenario = Scenario(quick_config(monitor_mode=MonitorMode.IN_BAND))
        assert isinstance(scenario.uplinks[1], OutOfBandUplink)
        for address in range(2, 10):
            assert isinstance(scenario.uplinks[address], InBandUplink)
        assert scenario.bridge is not None

    def test_reliable_inband_mode_builds_messengers(self):
        scenario = Scenario(quick_config(monitor_mode=MonitorMode.IN_BAND_RELIABLE))
        for address in range(2, 10):
            assert isinstance(scenario.uplinks[address], ReliableInBandUplink)
        assert set(scenario.messengers) == set(range(1, 10))

    def test_workload_convergecast_targets_gateway(self):
        scenario = Scenario(quick_config())
        assert len(scenario.workloads) == 8
        assert all(workload.dst == 1 for workload in scenario.workloads)

    def test_workload_random_pairs(self):
        scenario = Scenario(quick_config(
            workload=WorkloadSpec(kind="poisson", pattern="random_pairs", n_pairs=5),
        ))
        assert len(scenario.workloads) == 5

    def test_workload_none(self):
        scenario = Scenario(quick_config(workload=WorkloadSpec(kind="none")))
        assert scenario.workloads == []

    def test_mobility_built_when_configured(self):
        scenario = Scenario(quick_config(
            mobility=MobilitySpec(fraction_mobile=0.5, speed_mps=1.0),
        ))
        assert scenario.mobility is not None
        assert 1 not in scenario.mobility.mobile_nodes
        assert len(scenario.mobility.mobile_nodes) == 4  # round(0.5 * 8)


class TestExecution:
    def test_run_advances_through_phases(self):
        result = run_scenario(quick_config())
        config = result.config
        expected_end = (
            config.warmup_s + config.duration_s + config.cooldown_s + 30.0
        )
        assert result.sim.now == pytest.approx(expected_end)

    def test_truth_window_matches_measurement(self):
        result = run_scenario(quick_config())
        assert result.truth.window_start == 300.0
        assert result.truth.window_end == 600.0

    def test_workloads_stopped_after_run(self):
        result = run_scenario(quick_config())
        sent = [workload.messages_sent for workload in result.workloads]
        result.sim.run(until=result.sim.now + 600.0)
        assert [workload.messages_sent for workload in result.workloads] == sent

    def test_line_placement_runs(self):
        result = run_scenario(quick_config(
            n_nodes=5, placement=Placement.LINE, warmup_s=600.0,
        ))
        assert result.truth.total_msg_sent > 0


class TestTraceRetention:
    """A scenario keeps trace events only with ``capture_trace``; without
    it the log keeps none, yet its counters and the ground truth see every
    event the captured twin does."""

    @pytest.fixture(scope="class")
    def twins(self):
        config = quick_config(mobility=MobilitySpec(fraction_mobile=0.25))
        plain = run_scenario(config)
        captured = run_scenario(config.with_overrides(capture_trace=True))
        yield plain, captured
        plain.close()
        captured.close()

    def test_uncaptured_run_keeps_no_events(self, twins):
        plain, _ = twins
        assert plain.trace.capacity == 0 and len(plain.trace) == 0
        assert plain.trace.total_emitted > 0
        with pytest.raises(SimulationError, match="capture_trace"):
            plain.trace.events()

    def test_captured_run_keeps_every_event(self, twins):
        _, captured = twins
        assert len(captured.trace) == captured.trace.total_emitted

    def test_counters_and_ground_truth_match_the_captured_run(self, twins):
        plain, captured = twins
        assert plain.trace.total_emitted == captured.trace.total_emitted
        kinds = {event.kind for event in captured.trace.events()}
        assert {"phy.tx", "phy.rx", "mesh.deliver", "mobility.move"} <= kinds
        assert {kind: plain.trace.count(kind) for kind in kinds} == {
            kind: captured.trace.count(kind) for kind in kinds
        }
        assert sum(plain.trace.count(kind) for kind in kinds) == plain.trace.total_emitted
        assert plain.truth == captured.truth
        assert plain.truth.phy_tx > 0 and plain.truth.total_msg_sent > 0
