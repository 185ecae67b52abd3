"""Unit tests for fault injection and dynamic link attenuation."""

import pytest

from repro.errors import ConfigurationError
from repro.scenario.config import ScenarioConfig, WorkloadSpec
from repro.scenario.faults import (
    BatteryDepletion,
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
)
from repro.scenario.runner import Scenario


def build_scenario(**overrides):
    defaults = dict(
        seed=29,
        n_nodes=9,
        spreading_factor=7,
        warmup_s=600.0,
        duration_s=600.0,
        cooldown_s=60.0,
        report_interval_s=60.0,
        workload=WorkloadSpec(kind="periodic", interval_s=120.0),
    )
    defaults.update(overrides)
    return Scenario(ScenarioConfig(**defaults))


class TestLinkAttenuation:
    def test_attenuation_reduces_rssi(self):
        scenario = build_scenario()
        model = scenario.link_model
        before = model.received_power_dbm(14.0, 100.0, 1, 2)
        model.set_link_attenuation(1, 2, 15.0)
        after = model.received_power_dbm(14.0, 100.0, 1, 2)
        assert after == pytest.approx(before - 15.0)

    def test_attenuation_is_symmetric(self):
        scenario = build_scenario()
        model = scenario.link_model
        before = model.received_power_dbm(14.0, 100.0, 2, 1)
        model.set_link_attenuation(1, 2, 10.0)
        assert model.received_power_dbm(14.0, 100.0, 2, 1) == pytest.approx(before - 10.0)

    def test_zero_restores(self):
        scenario = build_scenario()
        model = scenario.link_model
        before = model.received_power_dbm(14.0, 100.0, 1, 2)
        model.set_link_attenuation(1, 2, 10.0)
        model.set_link_attenuation(1, 2, 0.0)
        assert model.received_power_dbm(14.0, 100.0, 1, 2) == before

    def test_negative_rejected(self):
        scenario = build_scenario()
        with pytest.raises(ValueError):
            scenario.link_model.set_link_attenuation(1, 2, -1.0)

    def test_other_links_unaffected(self):
        scenario = build_scenario()
        model = scenario.link_model
        before = model.received_power_dbm(14.0, 100.0, 1, 3)
        model.set_link_attenuation(1, 2, 30.0)
        after = model.received_power_dbm(14.0, 100.0, 1, 3)
        assert after == before


class TestFaultValidation:
    def test_crash_recover_ordering(self):
        with pytest.raises(ConfigurationError):
            NodeCrash(node=1, at_s=100.0, recover_at_s=50.0)

    def test_link_degradation_positive(self):
        with pytest.raises(ConfigurationError):
            LinkDegradation(node_a=1, node_b=2, at_s=10.0, extra_db=0.0)

    def test_battery_residual_positive(self):
        with pytest.raises(ConfigurationError):
            BatteryDepletion(node=1, at_s=10.0, residual_mah=0.0)

    def test_unknown_fault_rejected(self):
        scenario = build_scenario()
        schedule = FaultSchedule(faults=["not a fault"])
        with pytest.raises(ConfigurationError):
            schedule.apply(scenario)


class TestFaultExecution:
    def test_crash_and_recovery_fire_on_schedule(self):
        scenario = build_scenario()
        schedule = FaultSchedule([
            NodeCrash(node=5, at_s=700.0, recover_at_s=900.0),
        ])
        schedule.apply(scenario)
        sim = scenario.sim
        sim.run(until=800.0)
        assert scenario.nodes[5].failed
        sim.run(until=1000.0)
        assert not scenario.nodes[5].failed
        assert [message for _, message in schedule.log] == [
            "node 5 crashed", "node 5 recovered",
        ]

    def test_crash_stops_and_recovery_restarts_monitoring(self):
        scenario = build_scenario()
        schedule = FaultSchedule([
            NodeCrash(node=5, at_s=700.0, recover_at_s=900.0),
        ])
        schedule.apply(scenario)
        sim = scenario.sim
        sim.run(until=720.0)
        client = scenario.clients[5]
        batches_when_down = client.stats.batches_sent
        sim.run(until=880.0)
        # Nothing is sent while the node is down...
        assert client.stats.batches_sent == batches_when_down
        sim.run(until=1400.0)
        # ...and the node's own client ships batches again after recovery.
        assert scenario.clients[5] is client
        assert client.stats.batches_sent > batches_when_down

    def test_recovered_node_telemetry_is_not_taken_for_duplicates(self):
        # The restarted client's seqs continue past what the server's
        # dedup windows saw before the crash, so nothing it sends after
        # recovery is refused, and its status becomes the latest again.
        scenario = build_scenario(
            seed=77, n_nodes=16, warmup_s=1800.0, duration_s=900.0, cooldown_s=120.0,
        )
        FaultSchedule([NodeCrash(node=6, at_s=1500.0, recover_at_s=2100.0)]).apply(scenario)
        scenario.run()
        store = scenario.store
        assert scenario.server.stats.duplicates == 0
        after = [record for record in store.status_records(6) if record.timestamp > 2100.0]
        assert len(after) >= 10
        assert store.latest_status(6) == max(after, key=lambda record: record.seq)
        assert any(record.timestamp > 2100.0 for record in store.packet_records(node=6))

    def test_link_degradation_applies_and_restores(self):
        scenario = build_scenario()
        schedule = FaultSchedule([
            LinkDegradation(node_a=1, node_b=2, at_s=700.0, extra_db=25.0, restore_at_s=900.0),
        ])
        schedule.apply(scenario)
        sim = scenario.sim
        model = scenario.link_model
        before = model.received_power_dbm(14.0, 100.0, 1, 2)
        sim.run(until=800.0)
        assert model.received_power_dbm(14.0, 100.0, 1, 2) == pytest.approx(before - 25.0)
        sim.run(until=1000.0)
        assert model.received_power_dbm(14.0, 100.0, 1, 2) == before

    def test_battery_depletion_kills_node_organically(self):
        scenario = build_scenario()
        schedule = FaultSchedule([
            BatteryDepletion(node=5, at_s=700.0, residual_mah=0.5),
        ])
        schedule.apply(scenario)
        sim = scenario.sim
        # 0.5 mAh at >= 11.5 mA RX drains in under 3 minutes; the next
        # status snapshot after depletion triggers the brown-out.
        sim.run(until=1600.0)
        assert scenario.nodes[5].failed
        assert any("battery" in message for _, message in schedule.log)

    def test_degraded_link_visible_in_telemetry(self):
        # The 1<->2 link in this seed has ~2.9 dB margin above the SF7
        # sensitivity, so a mild 2 dB degradation keeps it alive but
        # shifts its reported RSSI.
        scenario = build_scenario()
        schedule = FaultSchedule([
            LinkDegradation(node_a=1, node_b=2, at_s=600.0, extra_db=2.0),
        ])
        schedule.apply(scenario)
        sim = scenario.sim
        sim.run(until=2400.0)
        from repro.monitor import metrics
        store = scenario.store
        before = metrics.link_quality(store, until=600.0).get((2, 1))
        after = metrics.link_quality(store, since=700.0).get((2, 1))
        assert before is not None and after is not None
        assert after.rssi_mean == pytest.approx(before.rssi_mean - 2.0, abs=0.5)

    def test_heavy_degradation_silences_the_link(self):
        # A 12 dB hit pushes a marginal SF7 link below sensitivity: the
        # link disappears from telemetry — absence is the detection signal.
        scenario = build_scenario()
        schedule = FaultSchedule([
            LinkDegradation(node_a=1, node_b=2, at_s=600.0, extra_db=12.0),
        ])
        schedule.apply(scenario)
        scenario.sim.run(until=2400.0)
        from repro.monitor import metrics
        store = scenario.store
        assert metrics.link_quality(store, until=600.0).get((2, 1)) is not None
        assert metrics.link_quality(store, since=700.0).get((2, 1)) is None
