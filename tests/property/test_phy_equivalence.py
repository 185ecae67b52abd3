"""Property: the spatial-index channel is event-identical to brute force.

The whole point of :class:`GridReachabilityIndex` is that culling is an
optimisation, not a model change — the trace stream (same events, same
order, same payloads, bit-identical floats) must match what the
exhaustive :class:`BruteForceReachability` oracle produces.  These tests
replay randomized small scenarios — mixed spreading factors, overlapping
frames, mid-run mobility through ``Topology.move`` and runtime link
attenuation changes — through both indexes and demand full equality, in both
``per_node`` and ``aggregate`` sub-sensitivity trace modes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BruteForceReachability,
    Channel,
    ChannelConfig,
    GridReachabilityIndex,
    LinkModel,
    LoRaParams,
    PathLossParams,
    Radio,
    Simulator,
    Topology,
)

#: Harsh propagation with real shadowing/fading so links of every kind
#: (solid, marginal, hopeless) appear in the random geometries.
PATH_LOSS = PathLossParams(shadowing_sigma_db=6.0, fast_fading_sigma_db=2.0)

coordinates = st.tuples(
    st.floats(0.0, 600.0, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 600.0, allow_nan=False, allow_infinity=False),
)

#: (time, sender index, payload bytes, spreading factor)
transmissions = st.lists(
    st.tuples(
        st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False),
        st.integers(0, 99),
        st.integers(8, 48),
        st.integers(7, 9),
    ),
    min_size=1,
    max_size=12,
)

#: (time, node index, new position)
moves = st.lists(
    st.tuples(
        st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False),
        st.integers(0, 99),
        coordinates,
    ),
    max_size=4,
)

#: (time, node index a, node index b, extra attenuation dB)
attenuations = st.lists(
    st.tuples(
        st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False),
        st.integers(0, 99),
        st.integers(0, 99),
        st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=3,
)


def run_flavour(reachability, mode, nodes, positions, seed, txs, move_list, atten_list):
    """Drive one randomized scenario through ``reachability``; return the
    full trace stream as comparable tuples."""
    sim = Simulator()
    topology = Topology(positions={node: xy for node, xy in zip(nodes, positions)})
    link = LinkModel(PATH_LOSS, random.Random(seed))
    channel = Channel(
        sim,
        topology,
        link,
        reachability=reachability,
        config=ChannelConfig(sub_sensitivity_trace=mode),
    )
    receptions = []
    for node in nodes:
        channel.attach(
            node,
            lambda reception: receptions.append(reception),
            Radio(),
        )

    def send(sender, payload_bytes, sf):
        channel.transmit(
            sender,
            LoRaParams(spreading_factor=sf),
            payload=None,
            payload_bytes=payload_bytes,
        )

    for at, sender_index, payload_bytes, sf in txs:
        sender = nodes[sender_index % len(nodes)]
        sim.call_at(at, lambda s=sender, p=payload_bytes, f=sf: send(s, p, f))
    for at, node_index, position in move_list:
        node = nodes[node_index % len(nodes)]
        sim.call_at(at, lambda n=node, xy=position: topology.move(n, xy))
    for at, a_index, b_index, extra_db in atten_list:
        a = nodes[a_index % len(nodes)]
        b = nodes[b_index % len(nodes)]
        if a == b:
            continue
        sim.call_at(
            at, lambda x=a, y=b, db=extra_db: link.set_link_attenuation(x, y, db)
        )

    sim.run()
    stream = [
        (event.time, event.kind, event.node, tuple(sorted(event.data.items())))
        for event in channel.trace.events()
    ]
    return stream, receptions


@pytest.mark.parametrize("mode", ["per_node", "aggregate"])
@settings(max_examples=40, deadline=None)
@given(
    positions=st.lists(coordinates, min_size=3, max_size=10, unique=True),
    seed=st.integers(0, 2**32 - 1),
    txs=transmissions,
    move_list=moves,
    atten_list=attenuations,
)
def test_grid_trace_equals_brute_force(mode, positions, seed, txs, move_list, atten_list):
    nodes = list(range(1, len(positions) + 1))
    grid_stream, grid_rx = run_flavour(
        GridReachabilityIndex(), mode, nodes, positions, seed, txs, move_list, atten_list
    )
    brute_stream, brute_rx = run_flavour(
        BruteForceReachability(), mode, nodes, positions, seed, txs, move_list, atten_list
    )
    assert grid_stream == brute_stream
    assert grid_rx == brute_rx


@settings(max_examples=15, deadline=None)
@given(
    positions=st.lists(coordinates, min_size=3, max_size=8, unique=True),
    seed=st.integers(0, 2**32 - 1),
    txs=transmissions,
)
def test_aggregate_counts_match_per_node_events(positions, seed, txs):
    """The aggregate ``phy.below_sensitivity`` count per frame equals the
    number of per-node events the classic mode emits for that frame, and
    every delivery verdict is unchanged between the two modes."""
    nodes = list(range(1, len(positions) + 1))
    per_node_stream, _ = run_flavour(
        GridReachabilityIndex(), "per_node", nodes, positions, seed, txs, [], []
    )
    aggregate_stream, _ = run_flavour(
        GridReachabilityIndex(), "aggregate", nodes, positions, seed, txs, [], []
    )

    def split(stream):
        below = {}
        rest = []
        for time, kind, node, data in stream:
            if kind == "phy.below_sensitivity":
                payload = dict(data)
                tx_id = payload["tx_id"]
                below[tx_id] = below.get(tx_id, 0) + int(payload.get("count", 1))
            else:
                rest.append((time, kind, node, data))
        return below, rest

    per_node_below, per_node_rest = split(per_node_stream)
    aggregate_below, aggregate_rest = split(aggregate_stream)
    assert per_node_rest == aggregate_rest
    assert per_node_below == aggregate_below


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_midflight_move_with_overlapping_frames_is_flavour_identical(seed):
    """Regression (REVIEW): the per-frame RSSI memo must not outlive a
    topology change.

    A short frame completing while a long frame is still on air memoises
    RSSI at a node set that *differs* between index flavours (brute force
    walks every node; the grid walks only the short frame's candidates).
    A node move between the two completions then had the brute-force
    oracle deliver the long frame against stale pre-move RSSI while the
    grid index computed fresh post-move values — different verdicts for
    the same scenario.  With the geometry-epoch guard both flavours
    re-evaluate against frame-end geometry and stay event-identical.

    Layout: node 1 sends a long frame to node 2 (40 m away); node 3,
    50 km out, sends a short overlapping frame (hopeless at everyone,
    so the grid culls all receivers while brute force still walks and
    memoises them); mid-flight, node 3 moves to 1 m from node 2, turning
    its just-finished frame into a lethal interferer.
    """
    nodes = [1, 2, 3]
    positions = [(0.0, 0.0), (40.0, 0.0), (50_000.0, 0.0)]
    txs = [(0.0, 0, 255, 9), (0.2, 2, 8, 9)]
    move_list = [(0.8, 2, (41.0, 0.0))]
    grid_stream, grid_rx = run_flavour(
        GridReachabilityIndex(), "aggregate", nodes, positions, seed, txs, move_list, []
    )
    brute_stream, brute_rx = run_flavour(
        BruteForceReachability(), "aggregate", nodes, positions, seed, txs, move_list, []
    )
    assert grid_stream == brute_stream
    assert grid_rx == brute_rx
    # The verdict must reflect *post-move* geometry: the relocated
    # sender's frame collides with the long frame at node 2 (the stale
    # pre-move memo would have let it through as a clean phy.rx).
    verdicts = [
        kind
        for _, kind, node, data in grid_stream
        if node == 2 and kind in ("phy.rx", "phy.collision") and dict(data)["tx_id"] == 1
    ]
    assert verdicts == ["phy.collision"]
