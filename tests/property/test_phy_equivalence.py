"""Property: the spatial-index channel is event-identical to brute force.

The whole point of :class:`GridReachabilityIndex` is that culling is an
optimisation, not a model change — the trace stream (same events, same
order, same payloads, bit-identical floats) must match what the
exhaustive :class:`BruteForceReachability` oracle produces.  These tests
replay randomized small scenarios — mixed spreading factors, overlapping
frames, mid-run mobility through ``Topology.move`` and runtime link
attenuation changes — through both indexes and demand full equality.

The channel evaluates only a frame's candidate receivers and folds every
other attached node into one ``phy.below_sensitivity`` count per frame.
The per-node definition of that count — every attached non-sender whose
RSSI, straight from the link model, is not receivable — is the oracle
for it here.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BruteForceReachability,
    Channel,
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
    max_size=8,
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


def link_rssi(link, topology, sender, node, params, tx_id):
    """RSSI of frame ``tx_id`` at ``node`` straight from the link model:
    no budget cache, no candidate set."""
    return (
        params.tx_power_dbm
        - link.path_loss_db(topology.distance(sender, node), sender, node)
        + link.fading_db(sender, node, tx_id)
    )


def run_flavour(
    reachability, nodes, positions, seed, txs, move_list, atten_list, per_node=None
):
    """Drive one randomized scenario through ``reachability``; return the
    full trace stream as comparable tuples.

    If ``per_node`` is a dict it receives, for each frame, ``tx_id ->
    {node: RSSI}`` over every attached non-sender, from :func:`link_rssi`
    under the geometry the channel judges the frame in."""
    sim = Simulator()
    topology = Topology(positions={node: xy for node, xy in zip(nodes, positions)})
    link = LinkModel(PATH_LOSS, random.Random(seed))
    channel = Channel(sim, topology, link, reachability=reachability)
    receptions = []
    for node in nodes:
        channel.attach(
            node,
            lambda reception: receptions.append(reception),
            Radio(),
        )

    def send(sender, payload_bytes, sf):
        params = LoRaParams(spreading_factor=sf)
        tx = channel.transmit(sender, params, payload=None, payload_bytes=payload_bytes)
        if per_node is None:
            return

        def snapshot():
            per_node[tx.tx_id] = {
                node: link_rssi(link, topology, sender, node, params, tx.tx_id)
                for node in nodes
                if node != sender
            }

        # The channel judges the frame at its end with priority -1; this
        # runs right after it, before any move or attenuation change
        # scheduled for the same instant.
        sim.call_at(tx.end, snapshot, priority=-1)

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


def assert_per_node_fates(stream, link, per_node):
    """Check ``stream`` frame by frame against the per-node definition.

    ``per_node`` maps each frame's ``tx_id`` to ``{node: RSSI}`` over its
    attached non-senders.  The nodes whose RSSI is not receivable are below
    sensitivity: the frame's ``phy.below_sensitivity`` count is their
    number (no event for none), every other node gets exactly one verdict
    (``phy.rx``, ``phy.collision`` or ``phy.rx_missed``), and each
    ``phy.rx`` carries the node's RSSI."""
    sent = {}
    counts = {}
    verdicts = {}
    for _, kind, node, data in stream:
        payload = dict(data)
        tx_id = payload["tx_id"]
        if kind == "phy.tx":
            sent[tx_id] = LoRaParams(spreading_factor=payload["sf"])
        elif kind == "phy.below_sensitivity":
            assert node is None and tx_id not in counts
            counts[tx_id] = payload["count"]
        else:
            verdicts.setdefault(tx_id, []).append(node)
            if kind == "phy.rx":
                assert payload["rssi"] == per_node[tx_id][node]
    assert sorted(per_node) == sorted(sent)
    for tx_id, rssi_at in per_node.items():
        below = {
            node for node, rssi in rssi_at.items() if not link.is_receivable(rssi, sent[tx_id])
        }
        assert counts.get(tx_id, 0) == len(below)
        assert sorted(verdicts.get(tx_id, [])) == sorted(set(rssi_at) - below)


@pytest.mark.parametrize("oracle", ["aggregate", "per_node"])
@settings(max_examples=40, deadline=None)
@given(
    positions=st.lists(coordinates, min_size=3, max_size=10, unique=True),
    seed=st.integers(0, 2**32 - 1),
    txs=transmissions,
    move_list=moves,
    atten_list=attenuations,
)
def test_grid_trace_equals_brute_force(oracle, positions, seed, txs, move_list, atten_list):
    """The grid-indexed channel's trace equals a brute-force evaluation of
    every attached node, through moves and attenuation changes.
    ``aggregate``: the trace of the same scenario on
    :class:`BruteForceReachability`, event for event.  ``per_node``: each
    node's fate straight from the link model, by
    :func:`assert_per_node_fates`."""
    nodes = list(range(1, len(positions) + 1))
    per_node = {}
    grid_stream, grid_rx = run_flavour(
        GridReachabilityIndex(), nodes, positions, seed, txs, move_list, atten_list, per_node
    )
    if oracle == "per_node":
        link = LinkModel(PATH_LOSS, random.Random(seed))
        assert_per_node_fates(grid_stream, link, per_node)
        return
    brute_stream, brute_rx = run_flavour(
        BruteForceReachability(), nodes, positions, seed, txs, move_list, atten_list
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
    """Each frame's ``phy.below_sensitivity`` count equals the number of
    attached non-senders below sensitivity, recomputed per node from the
    link model, and every other attached non-sender gets exactly one
    delivery verdict (``phy.rx``, ``phy.collision`` or ``phy.rx_missed``)."""
    nodes = list(range(1, len(positions) + 1))
    stream, _ = run_flavour(GridReachabilityIndex(), nodes, positions, seed, txs, [], [])
    # The same seed rebuilds the same derived shadowing and fading, so this
    # oracle shares no state with the run.
    topology = Topology(positions={node: xy for node, xy in zip(nodes, positions)})
    link = LinkModel(PATH_LOSS, random.Random(seed))
    per_node = {}
    for _, kind, sender, data in stream:
        payload = dict(data)
        if kind == "phy.tx":
            params = LoRaParams(spreading_factor=payload["sf"])
            tx_id = payload["tx_id"]
            per_node[tx_id] = {
                node: link_rssi(link, topology, sender, node, params, tx_id)
                for node in nodes
                if node != sender
            }
    assert_per_node_fates(stream, link, per_node)


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
        GridReachabilityIndex(), nodes, positions, seed, txs, move_list, []
    )
    brute_stream, brute_rx = run_flavour(
        BruteForceReachability(), nodes, positions, seed, txs, move_list, []
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
