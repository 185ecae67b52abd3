"""Property: the cached fleet tile equals its from-scratch definition.

``TileAggregate`` caches each node's health score and keeps running
sent/matched totals, so a tile re-scores only the nodes a batch changed
and the ones whose liveness is decaying.  The oracle is the definition
the cache replaced: score every node from its current inputs and average
the defined scores in node order, and divide the pairs' summed
``matched`` by their summed ``sent``.  After any sequence of ``observe_*``
calls, clock steps and report-interval changes both must agree bit for
bit (NaN matching NaN).
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BROADCAST, Direction, PacketRecord, PacketType, StatusRecord
from repro.monitor import health
from repro.monitor.fleet import TileAggregate

#: Nodes that report batches and observe packets.
OBSERVERS = (1, 2, 3, 4)
#: A source the tile never hears from (no batch, no observation).
UNSEEN = 9

observers = st.sampled_from(OBSERVERS)
endpoints = st.sampled_from(OBSERVERS + (UNSEEN,))
ptypes = st.sampled_from([PacketType.DATA] * 4 + [PacketType.HELLO, PacketType.ACK])
roles = st.sampled_from(["origin", "origin", "destination", "destination", "relay", "elsewhere"])

batches = st.tuples(st.just("batch"), observers)


@st.composite
def packets(draw):
    """Observations of one packet, in any order: OUT at its origin (first
    try or retry, and again if a routing loop brings it back), OUT at
    relays, IN at its destination and IN elsewhere."""
    src = draw(endpoints)
    dst = draw(st.one_of(endpoints, st.just(BROADCAST)))
    packet_id = draw(st.integers(min_value=0, max_value=5))
    ptype = int(draw(ptypes))
    observations = []
    for role in draw(st.lists(roles, min_size=1, max_size=3)):
        if role == "origin" and src != UNSEEN:
            observer, direction = src, Direction.OUT
        elif role == "destination" and dst in OBSERVERS:
            observer, direction = dst, Direction.IN
        else:
            observer = draw(observers)
            direction = Direction.OUT if role in ("origin", "relay") else Direction.IN
        observations.append((observer, direction, draw(st.sampled_from([1, 1, 2]))))
    return ("packet", src, dst, packet_id, ptype, tuple(observations))


statuses = st.tuples(
    st.just("status"),
    observers,
    st.floats(min_value=2.8, max_value=4.4),
    st.floats(min_value=0.0, max_value=1.2),
)

#: Clock steps in report intervals: backward and forward, to the edges
#: of the decay band (one to five intervals of silence) and across it.
clock_steps = st.tuples(
    st.just("clock"),
    st.one_of(
        st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.001, 2.5, 4.999, 5.0, 5.001, 6.0]),
        st.floats(min_value=-3.0, max_value=7.0),
    ),
)

intervals = st.tuples(
    st.just("interval"),
    st.one_of(
        st.sampled_from([30.0, 60.0, 90.0]),
        st.floats(min_value=1.0, max_value=200.0),
    ),
)

steps = st.lists(
    st.one_of(
        batches, batches, packets(), packets(), statuses,
        clock_steps, clock_steps, clock_steps, intervals,
    ),
    min_size=20,
    max_size=80,
)


def definition_health(tile, now, report_interval_s):
    """The from-scratch tile health: every node scored from its current
    inputs, the mean of the defined scores taken in node order."""
    total = 0.0
    count = 0
    for telemetry in tile._nodes.values():
        score = health.node_score(
            health.liveness_component(telemetry.last_seen, now, report_interval_s),
            telemetry.matched / telemetry.sent if telemetry.sent else None,
            health.spectrum_component(telemetry.duty_utilisation),
            health.battery_component(telemetry.battery_v),
        )
        if not math.isnan(score):
            total += score
            count += 1
    return total / count if count else math.nan


def definition_pdr(tile):
    """Matched over sent, each summed over every pair."""
    sent = sum(pair.sent for pair in tile._pairs.values())
    if not sent:
        return math.nan
    return sum(pair.matched for pair in tile._pairs.values()) / sent


def same_bits(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def observations(step, now):
    """The ``observe_*`` calls of one step, one callable each."""
    kind = step[0]
    if kind == "batch":
        return [lambda tile: tile.observe_batch(step[1], now)]
    if kind == "status":
        _, node, battery_v, duty = step
        record = StatusRecord(
            node=node, seq=0, timestamp=now, uptime_s=10.0, queue_depth=0,
            route_count=1, neighbor_count=1, battery_v=battery_v, tx_frames=1,
            tx_airtime_s=0.1, retransmissions=0, drops=0, duty_utilisation=duty,
            originated=0, delivered=0, forwarded=0,
        )
        return [lambda tile: tile.observe_status(record)]
    _, src, dst, packet_id, ptype, observed = step
    records = [
        PacketRecord(
            node=node, seq=0, timestamp=now, direction=direction, src=src, dst=dst,
            next_hop=dst, prev_hop=src, ptype=ptype, packet_id=packet_id,
            size_bytes=40, attempt=attempt,
        )
        for node, direction, attempt in observed
    ]
    return [lambda tile, record=record: tile.observe_packet(record) for record in records]


@settings(max_examples=200, deadline=None)
@given(
    pending_ids=st.integers(min_value=1, max_value=6),
    start=st.floats(min_value=0.0, max_value=1e6),
    steps=steps,
)
def test_cached_tile_equals_definition(pending_ids, start, steps):
    tile = TileAggregate(pending_ids=pending_ids)
    now = start
    report_interval_s = 60.0

    def check(step):
        cached = tile.health(now, report_interval_s)
        expected = definition_health(tile, now, report_interval_s)
        assert same_bits(cached, expected), (step, cached, expected)
        assert same_bits(tile.pdr(), definition_pdr(tile)), step

    for step in steps:
        if step[0] == "clock":
            now += step[1] * report_interval_s
            check(step)
        elif step[0] == "interval":
            report_interval_s = step[1]
            check(step)
        else:
            for observe in observations(step, now):
                observe(tile)
                check(step)
