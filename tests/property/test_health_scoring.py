"""Property: one-pass health scoring equals the per-node definition.

``network_health`` scores every node from one windowed PDR matrix, and
the dashboard takes the network score as the mean of those node scores.
The oracle here is the per-node definition: a node's delivery is the
sum of ``delivered`` over the sum of ``sent`` across the window's pairs
whose source is that node, and its score combines that with liveness,
spectrum and battery.  On random stores both must agree exactly.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BROADCAST,
    Dashboard,
    Direction,
    MetricsStore,
    PacketRecord,
    PacketType,
    StatusRecord,
)
from repro.monitor import metrics
from repro.monitor.health import (
    HealthScore,
    battery_component,
    liveness_component,
    network_health,
    node_health,
    node_score,
    spectrum_component,
)

WINDOW_S = 1800.0

nodes = st.integers(min_value=1, max_value=6)
ptypes = st.sampled_from([PacketType.DATA] * 4 + [PacketType.HELLO, PacketType.ACK])
roles = st.sampled_from(["destination", "destination", "relay", "overheard"])


@st.composite
def packet_observations(draw, stamps):
    """Every observation of one packet: OUT at its origin (first try or
    retry), then OUT at relays, IN at its destination, IN overheard."""
    src = draw(nodes)
    dst = draw(st.one_of(nodes, st.just(BROADCAST)))
    packet_id = draw(st.integers(min_value=0, max_value=7))
    ptype = int(draw(ptypes))
    observations = []
    for role in ["origin"] + draw(st.lists(roles, max_size=3)):
        if role == "origin":
            observer = src
        elif role == "destination" and dst != BROADCAST:
            observer = dst
        else:
            observer = draw(nodes)
        direction = Direction.OUT if role in ("origin", "relay") else Direction.IN
        attempt = draw(st.sampled_from([1, 1, 2]))
        observations.append(
            (observer, direction, src, dst, packet_id, attempt, ptype, draw(stamps))
        )
    return observations


@st.composite
def scenarios(draw):
    """A random store, the time it is read at, and the report interval."""
    now = draw(st.floats(min_value=0.0, max_value=6000.0))
    # Ages below zero lie after ``now``, above 1800 s before the window.
    stamps = st.floats(min_value=-600.0, max_value=2400.0).map(lambda age: now - age)
    store = MetricsStore()
    seqs = {}

    def next_seq(node):
        seqs[node] = seqs.get(node, -1) + 1
        return seqs[node]

    for packet in draw(st.lists(packet_observations(stamps), max_size=30)):
        for observer, direction, src, dst, packet_id, attempt, ptype, ts in packet:
            store.add_packet_record(PacketRecord(
                node=observer, seq=next_seq(observer), timestamp=ts, direction=direction,
                src=src, dst=dst, next_hop=dst, prev_hop=src, ptype=ptype,
                packet_id=packet_id, size_bytes=40, attempt=attempt,
                rssi_dbm=-100.0 if direction is Direction.IN else None,
                snr_db=5.0 if direction is Direction.IN else None,
                airtime_s=0.05 if direction is Direction.OUT else None,
            ))
    status_plan = st.tuples(
        nodes,
        stamps,
        st.floats(min_value=2.8, max_value=4.4),  # battery_v
        st.floats(min_value=0.0, max_value=1.2),  # duty_utilisation
    )
    for node, ts, battery_v, duty in draw(st.lists(status_plan, max_size=8)):
        store.add_status_record(StatusRecord(
            node=node, seq=next_seq(node), timestamp=ts, uptime_s=ts, queue_depth=0,
            route_count=1, neighbor_count=0, battery_v=battery_v, tx_frames=0,
            tx_airtime_s=0.0, retransmissions=0, drops=0, duty_utilisation=duty,
            originated=0, delivered=0, forwarded=0,
        ))
    for node, received_at in draw(st.lists(st.tuples(nodes, stamps), max_size=8)):
        store.note_batch(node, received_at=received_at, dropped_records=0)
    return store, now, draw(st.sampled_from([60.0, 300.0]))


def expected_health(store, node, now, report_interval_s):
    """The per-node definition: the node's own pairs of the windowed matrix."""
    pairs = metrics.pdr_matrix(store, since=now - WINDOW_S, until=now)
    sent = delivered = 0
    for (src, _dst), pair in pairs.items():
        if src == node:
            sent += pair.sent
            delivered += pair.delivered
    delivery = delivered / sent if sent > 0 else None
    liveness = liveness_component(store.last_seen(node), now, report_interval_s)
    status = store.latest_status(node)
    spectrum = spectrum_component(None if status is None else status.duty_utilisation)
    battery = battery_component(None if status is None else status.battery_v)
    return HealthScore(
        node=node,
        score=node_score(liveness, delivery, spectrum, battery),
        liveness=liveness,
        delivery=delivery,
        spectrum=spectrum,
        battery=battery,
    )


# ``repr`` compares floats exactly and treats a NaN score as equal to itself.
@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_one_pass_health_equals_per_node_definition(scenario):
    store, now, report_interval_s = scenario
    scores = network_health(store, now, report_interval_s)
    assert list(scores) == store.nodes()
    expected = [expected_health(store, node, now, report_interval_s) for node in store.nodes()]
    for health in expected:
        assert repr(scores[health.node]) == repr(health)
        assert repr(node_health(store, health.node, now, report_interval_s)) == repr(health)

    document = Dashboard(store, report_interval_s=report_interval_s).to_json_dict(now)
    defined = [health.score for health in expected if not math.isnan(health.score)]
    if defined:
        assert document["network_health"] == sum(defined) / len(defined)
    else:
        assert math.isnan(document["network_health"])
