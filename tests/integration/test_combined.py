"""Integration: everything at once, and robustness across seeds.

The combined scenario exercises mobility, fault injection and monitoring
simultaneously — the situation a real administrator actually faces.  The
seed sweep then checks that the headline invariants are properties of the
system, not of one lucky random stream.
"""

import math

import pytest

from repro.monitor import health
from repro.monitor.alerts import AlertEngine, SilentNodeRule
from repro.scenario.config import MobilitySpec, ScenarioConfig, WorkloadSpec
from repro.scenario.faults import FaultSchedule, LinkDegradation, NodeCrash
from repro.scenario.runner import Scenario, run_scenario


class TestEverythingOn:
    @pytest.fixture(scope="class")
    def outcome(self):
        config = ScenarioConfig(
            seed=77,
            n_nodes=16,
            spreading_factor=7,
            warmup_s=900.0,
            duration_s=2400.0,
            cooldown_s=120.0,
            report_interval_s=60.0,
            workload=WorkloadSpec(kind="periodic", interval_s=180.0, payload_bytes=24),
            mobility=MobilitySpec(fraction_mobile=0.25, speed_mps=1.0),
        )
        scenario = Scenario(config)
        schedule = FaultSchedule([
            NodeCrash(node=6, at_s=1500.0, recover_at_s=2100.0),
            LinkDegradation(node_a=2, node_b=3, at_s=1800.0, extra_db=6.0),
        ])
        schedule.apply(scenario)
        engine = AlertEngine(
            scenario.store, rules=[SilentNodeRule(max_silence_s=190.0)]
        )
        alerts_seen = []
        poll = scenario.sim.call_every(
            30.0, lambda: alerts_seen.extend(engine.evaluate(scenario.sim.now))
        )
        result = scenario.run()
        poll.cancel()
        return result, schedule, engine, alerts_seen

    def test_scenario_completes(self, outcome):
        result, schedule, engine, alerts_seen = outcome
        assert result.truth.total_msg_sent > 100

    def test_faults_fired(self, outcome):
        _, schedule, _, _ = outcome
        messages = [message for _, message in schedule.log]
        assert "node 6 crashed" in messages
        assert "node 6 recovered" in messages
        assert any("degraded" in message for message in messages)

    def test_crash_raised_an_alert(self, outcome):
        _, _, _, alerts_seen = outcome
        assert any(alert.node == 6 and alert.rule == "silent_node" for alert in alerts_seen)

    def test_alert_cleared_after_recovery(self, outcome):
        result, _, engine, _ = outcome
        engine.evaluate(result.sim.now)
        assert not any(alert.node == 6 for alert in engine.active())

    def test_network_still_delivers_something(self, outcome):
        # Mobility (roaming nodes drift out of the grid's coverage),
        # a crashed relay and a degraded link together are brutal for a
        # distance-vector mesh; the point here is graceful degradation,
        # not full delivery.
        result, _, _, _ = outcome
        assert result.truth.msg_pdr > 0.2
        # The static near-gateway sources keep working.
        pair_pdr = result.truth.pair_pdr()
        assert max(pair_pdr.values()) > 0.8

    def test_telemetry_pipeline_survived(self, outcome):
        result, _, _, _ = outcome
        assert result.telemetry_delivery_ratio() > 0.95
        assert len(result.store.nodes()) == 16

    def test_health_scores_defined_for_everyone(self, outcome):
        result, _, _, _ = outcome
        scores = health.network_health(result.store, result.sim.now)
        assert len(scores) == 16
        assert all(not math.isnan(score.score) for score in scores.values())


class TestSeedRobustness:
    @pytest.mark.parametrize("seed", [3, 57, 911])
    def test_invariants_hold_across_seeds(self, seed):
        result = run_scenario(ScenarioConfig(
            seed=seed,
            n_nodes=9,
            spreading_factor=7,
            warmup_s=900.0,
            duration_s=900.0,
            report_interval_s=60.0,
            workload=WorkloadSpec(kind="periodic", interval_s=120.0),
        ))
        # Headline invariants of a healthy static SF7 mesh.
        assert result.truth.msg_pdr > 0.8, f"seed {seed}: PDR {result.truth.msg_pdr}"
        assert result.telemetry_delivery_ratio() > 0.99
        assert result.server.stats.duplicates == 0
        # Every node converged to full routing.
        for node in result.nodes.values():
            assert len(node.routes) == 8
