"""Drop-reason taxonomy: one test per terminal verdict.

Each test builds a small real world (conftest ``WorldBuilder``), forces
exactly one failure mode and asserts the flight recorder assigns that
verdict to the message — the end-to-end contract behind ``repro trace
why``.  The synthetic-event unit tests for the inference rules live in
``tests/unit/test_obs.py``; these go through the full stack instead.
"""

import pytest

from repro.api import FlightRecorder
from repro.mesh.config import MeshConfig
from repro.mesh.mac import CsmaMac
from repro.obs.recorder import (
    VERDICT_COLLISION,
    VERDICT_DUTY_CYCLE,
    VERDICT_NO_ROUTE,
    VERDICT_NODE_DOWN,
    VERDICT_QUEUE_FULL,
    VERDICT_RETRY_EXHAUSTED,
    VERDICT_TTL,
)


def recorded(world):
    recorder = FlightRecorder()
    recorder.attach(world.trace)
    return recorder


def fast_config(**overrides):
    base = dict(
        hello_interval_s=30.0,
        route_interval_s=45.0,
        neighbor_timeout_s=1000.0,
        route_timeout_s=2000.0,
        jitter_s=2.0,
    )
    base.update(overrides)
    return MeshConfig(**base)


def verdict_of(world, recorder, msg_id, origin=1):
    msg = recorder.message(origin, msg_id)
    assert msg is not None, "message never entered the recorder"
    return recorder.verdict(msg)


class TestDropTaxonomy:
    def test_no_route_on_partitioned_topology(self, world):
        # Two DV nodes with no warmup: no routes exist, the origin refuses.
        world.build(n_nodes=2, area_m=50.0)
        recorder = recorded(world)
        assert world.nodes[1].send_message(2, b"x") is None
        (msg,) = recorder.messages()
        assert msg.refused
        assert recorder.verdict(msg) == VERDICT_NO_ROUTE

    def test_ttl_exceeded_with_hop_limit_one(self, world):
        # TTL=1 over a multi-hop route: the first relay must drop it.
        world.mesh_config = fast_config(hop_limit=1)
        world.build(n_nodes=9, area_m=250.0)
        world.sim.run(until=120.0)
        assert world.nodes[1].routes.metric(9) >= 2, "need a multi-hop pair"
        recorder = recorded(world)
        msg_id = world.nodes[1].send_message(9, b"payload")
        world.sim.run(until=world.sim.now + 60.0)
        assert verdict_of(world, recorder, msg_id) == VERDICT_TTL

    def test_queue_full_with_zero_length_mac_queue(self, world):
        # queue_limit=0 is a zero-length MAC queue: every enqueue drops.
        # Flooding needs no routes, so the fragment reaches the MAC.
        world.mesh_config = fast_config(queue_limit=0)
        world.build(n_nodes=2, area_m=50.0, protocol="flood")
        recorder = recorded(world)
        msg_id = world.nodes[1].send_message(2, b"x")
        world.sim.run(until=world.sim.now + 5.0)
        assert verdict_of(world, recorder, msg_id) == VERDICT_QUEUE_FULL

    def test_node_down_kills_in_custody_frames(self, world):
        # Kill the next hop right before sending: per-hop ACKs never come,
        # and the recorder pins the loss on the dead node, not the retries.
        world.build(n_nodes=9, area_m=250.0)
        world.sim.run(until=120.0)
        next_hop = world.nodes[1].routes.next_hop(9)
        assert next_hop is not None and next_hop != 9
        recorder = recorded(world)
        world.nodes[next_hop].fail()
        msg_id = world.nodes[1].send_message(9, b"payload")
        world.sim.run(until=world.sim.now + 120.0)
        assert verdict_of(world, recorder, msg_id) == VERDICT_NODE_DOWN

    def test_retry_exhausted_with_retry_cap_zero(self, world):
        # max_retries=0: one unacknowledged attempt is terminal.  A 60 dB
        # obstacle silences the (still cached) route's link both ways, so
        # the next hop is alive but deaf — plain retry exhaustion.
        world.mesh_config = fast_config(max_retries=0)
        world.build(n_nodes=2, area_m=50.0)
        world.sim.run(until=120.0)
        assert world.nodes[1].routes.next_hop(2) == 2
        recorder = recorded(world)
        world.link_model.set_link_attenuation(1, 2, 60.0)
        msg_id = world.nodes[1].send_message(2, b"payload")
        world.sim.run(until=world.sim.now + 60.0)
        assert verdict_of(world, recorder, msg_id) == VERDICT_RETRY_EXHAUSTED

    def test_duty_cycle_saturation(self, world, monkeypatch):
        # Saturate node 1's duty budget, and make the first deferral
        # terminal so the test does not sit through 120 x 5 s of deferrals.
        monkeypatch.setattr(CsmaMac, "MAX_DUTY_DEFERRALS", 0)
        world.build(n_nodes=2, area_m=50.0, protocol="flood")
        mac = world.nodes[1].mac
        mac.duty.record(mac.params.frequency_hz, 36.0, world.sim.now)
        recorder = recorded(world)
        msg_id = world.nodes[1].send_message(2, b"x")
        world.sim.run(until=world.sim.now + 30.0)
        assert verdict_of(world, recorder, msg_id) == VERDICT_DUTY_CYCLE

    def test_forced_collision_hidden_terminal(self, world):
        # Classic hidden terminal: 1 and 3 both reach 2 but an obstacle
        # hides them from each other (CAD included), so simultaneous
        # transmissions overlap at 2.  Flooding means no per-hop retry can
        # repair it, leaving the PHY collision as the terminal evidence.
        world.build(n_nodes=3, area_m=100.0, protocol="flood")
        for node, position in {1: (0.0, 0.0), 2: (100.0, 0.0), 3: (200.0, 0.0)}.items():
            world.topology.move(node, position)
        world.link_model.set_link_attenuation(1, 3, 200.0)
        recorder = recorded(world)
        msg_a = world.nodes[1].send_message(2, b"from-a")
        msg_b = world.nodes[3].send_message(2, b"from-b")
        world.sim.run(until=world.sim.now + 10.0)
        assert verdict_of(world, recorder, msg_a) == VERDICT_COLLISION
        assert verdict_of(world, recorder, msg_b, origin=3) == VERDICT_COLLISION


def test_lossy_scenario_has_no_unknown_verdicts():
    """Acceptance check: every message in a lossy mesh gets a verdict."""
    from repro.obs.recorder import ALL_VERDICTS
    from repro.scenario.config import Environment, ScenarioConfig, WorkloadSpec
    from repro.scenario.runner import run_scenario

    config = ScenarioConfig(
        seed=11,
        n_nodes=20,
        environment=Environment.URBAN,
        tx_power_dbm=6.0,
        warmup_s=600.0,
        duration_s=600.0,
        cooldown_s=30.0,
        capture_trace=True,
        workload=WorkloadSpec(
            kind="poisson", rate_per_s=0.3, payload_bytes=24, pattern="random_pairs"
        ),
    )
    with run_scenario(config) as result:
        recorder = result.recorder
        assert recorder is not None
        counts = recorder.verdict_counts()
        assert sum(counts.values()) == len(recorder.messages()) > 0
        assert set(counts) == set(ALL_VERDICTS)
        # Some traffic must actually have been lost for this to test
        # anything; the seed/config above guarantee it.
        assert sum(count for v, count in counts.items() if v != "delivered") > 0
