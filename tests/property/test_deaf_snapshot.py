"""Property: the channel's deaf set equals a poll of the attached radios.

Radios push every state transition to the channel they are attached to,
and each frame stores the nodes that could not hear its preamble
(``Transmission.deaf_at_start``).  The oracle is the poll the push
replaced: at frame start, every topology node except the attached nodes
whose radio is in RX.  Random attaches, detaches, re-attaches with a
fresh radio, transitions (on detached radios too), moves and frames must
never make the two differ.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Channel,
    LinkModel,
    LoRaParams,
    PathLossParams,
    Radio,
    RadioState,
    Simulator,
    Topology,
)
from repro.errors import ConfigurationError

NODES = (1, 2, 3, 4, 5)
PARAMS = LoRaParams(spreading_factor=7)

nodes = st.sampled_from(NODES)
states = st.sampled_from(list(RadioState))
positions = st.tuples(st.floats(0.0, 500.0), st.floats(0.0, 500.0))

operations = st.lists(
    st.one_of(
        st.tuples(st.just("attach"), nodes, states),
        st.tuples(st.just("detach"), nodes),
        st.tuples(st.just("reattach"), nodes, states),
        # Index into every radio ever created, attached or not.
        st.tuples(st.just("transition"), st.integers(0, 50), states),
        st.tuples(st.just("move"), nodes, positions),
        st.tuples(st.just("transmit"), nodes),
        st.tuples(st.just("advance"), st.floats(0.0, 0.5)),
    ),
    max_size=50,
)


def polled(topology, attached):
    """Topology nodes minus the attached nodes whose radio is in RX."""
    return set(topology.nodes()) - {
        address for address, radio in attached.items() if radio.state is RadioState.RX
    }


@settings(max_examples=200, deadline=None)
@given(operations=operations)
def test_deaf_snapshot_equals_radio_poll(operations):
    sim = Simulator()
    topology = Topology(positions={node: (100.0 * node, 0.0) for node in NODES})
    channel = Channel(sim, topology, LinkModel(PathLossParams(), random.Random(1)))
    attached = {}
    radios = []

    def attach(node, state):
        radio = Radio(initial_state=state)
        radios.append(radio)
        channel.attach(node, lambda reception: None, radio)
        attached[node] = radio

    for operation in operations:
        kind = operation[0]
        if kind == "attach":
            _, node, state = operation
            if node in attached:
                with pytest.raises(ConfigurationError):
                    attach(node, state)
                radios.pop()
            else:
                attach(node, state)
        elif kind == "detach":
            channel.detach(operation[1])
            attached.pop(operation[1], None)
        elif kind == "reattach":
            _, node, state = operation
            channel.detach(node)
            attached.pop(node, None)
            attach(node, state)
        elif kind == "transition":
            _, index, state = operation
            if radios:
                radios[index % len(radios)].set_state(state, sim.now)
        elif kind == "move":
            topology.move(operation[1], operation[2])
        elif kind == "transmit":
            tx = channel.transmit(operation[1], PARAMS, payload=None, payload_bytes=12)
            assert tx.deaf_at_start == polled(topology, attached)
        else:
            sim.run(until=sim.now + operation[1])
    tx = channel.transmit(NODES[0], PARAMS, payload=None, payload_bytes=12)
    assert tx.deaf_at_start == polled(topology, attached)
    sim.run()


def test_radio_with_an_observer_cannot_attach_twice():
    sim = Simulator()
    topology = Topology(positions={1: (0.0, 0.0), 2: (100.0, 0.0)})
    channel = Channel(sim, topology, LinkModel(PathLossParams(), random.Random(1)))
    radio = Radio()
    channel.attach(1, lambda reception: None, radio)
    with pytest.raises(ConfigurationError):
        channel.attach(2, lambda reception: None, radio)
    # Once detached, the radio reports to nobody and may attach again.
    channel.detach(1)
    assert radio.observer is None
    channel.attach(2, lambda reception: None, radio)


def test_recovered_node_is_judged_by_its_new_radio(world):
    """A node fails mid-transmission and recovers before that frame ends.

    The old MAC's frame completion, and any later transition of the old
    radio, must not change what the channel believes about the node: it
    listens exactly while its new radio is in RX.
    """
    world.build(n_nodes=9, area_m=250.0)
    sim, channel, topology = world.sim, world.channel, world.topology
    node = world.nodes[5]
    while node.mac.radio.state is not RadioState.TX:
        assert sim.run(max_events=1) == 1
    last_tx = [event for event in world.trace.events(kind="phy.tx") if event.node == 5][-1]
    frame_end = last_tx.time + last_tx.data["airtime"]
    old_radio = node.mac.radio
    node.fail()
    node.recover()
    new_radio = node.mac.radio
    assert new_radio is not old_radio and sim.now < frame_end

    def attached():
        return {
            address: mesh_node.mac.radio
            for address, mesh_node in world.nodes.items()
            if not mesh_node.failed
        }

    def probe():
        """A frame from node 1 now; its stored deaf set and node 5's verdict."""
        tx = channel.transmit(1, world.params, payload="probe", payload_bytes=10)
        assert tx.deaf_at_start == polled(topology, attached())
        sim.run(until=tx.end + 1e-3)
        verdicts = [
            event.kind
            for event in world.trace.events()
            if event.node == 5 and event.data.get("tx_id") == tx.tx_id
        ]
        return tx.deaf_at_start, verdicts

    # The new radio is not listening while the old frame ends.
    new_radio.set_state(RadioState.STANDBY, sim.now)
    sim.run(until=frame_end + 1e-3)
    deaf, verdicts = probe()
    assert 5 in deaf
    assert verdicts == ["phy.rx_missed"]

    # The new radio listens, and the stale radio moves on its own.
    new_radio.set_state(RadioState.RX, sim.now)
    old_radio.set_state(RadioState.TX, sim.now)
    deaf, verdicts = probe()
    assert 5 not in deaf
    assert "phy.rx_missed" not in verdicts
