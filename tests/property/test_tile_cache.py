"""Property: the cached fleet tile equals its from-scratch definition.

``TileAggregate`` caches each node's health score and reads each node's
state and delivery from the store's aggregate, so a tile re-scores only
the nodes whose inputs changed and the ones whose liveness is decaying.
The oracle is the definition the cache replaced: score every node the
store heard of from what the store reads back (its status record of
highest seq and its last batch), with its delivery from
``metrics.pdr_matrix`` over the store, and average the defined scores
in the order the store first heard of the nodes; the tile's PDR is
``metrics.network_pdr``.  Each step writes the store first and then
calls ``observe_*``, as the server does.  After any sequence of
records (statuses in any seq order), clock steps and report-interval
changes both must agree bit for bit (NaN matching NaN).
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BROADCAST, Direction, MetricsStore, PacketRecord, PacketType, StatusRecord
from repro.monitor import health, metrics
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


#: Status seqs repeat and go back, so a late lower-seq status arrives.
statuses = st.tuples(
    st.just("status"),
    observers,
    st.integers(min_value=0, max_value=4),
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


def definition_health(heard, store, now, report_interval_s):
    """The from-scratch tile health: every node in ``heard`` (the order
    the store first heard of them) scored from the store, the mean of
    the defined scores taken in that order."""
    assert sorted(heard) == store.nodes()
    sent = {}
    delivered = {}
    for (src, _dst), pair in metrics.pdr_matrix(store).items():
        sent[src] = sent.get(src, 0) + pair.sent
        delivered[src] = delivered.get(src, 0) + pair.delivered
    total = 0.0
    count = 0
    for node in heard:
        status = store.latest_status(node)
        score = health.node_score(
            health.liveness_component(store.last_seen(node), now, report_interval_s),
            delivered[node] / sent[node] if sent.get(node) else None,
            health.spectrum_component(None if status is None else status.duty_utilisation),
            health.battery_component(None if status is None else status.battery_v),
        )
        if not math.isnan(score):
            total += score
            count += 1
    return total / count if count else math.nan


def same_bits(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def observations(step, now, seq):
    """The store writes and ``observe_*`` calls of one step, one callable
    each, and the node each writes; ``seq`` numbers the packet records."""
    kind = step[0]
    if kind == "batch":
        node = step[1]

        def batch(store, tile):
            store.note_batch(node, now, 0)
            tile.observe_batch(node, now)

        return [(node, batch)]
    if kind == "status":
        _, node, status_seq, battery_v, duty = step
        record = StatusRecord(
            node=node, seq=status_seq, timestamp=now, uptime_s=10.0, queue_depth=0,
            route_count=1, neighbor_count=1, battery_v=battery_v, tx_frames=1,
            tx_airtime_s=0.1, retransmissions=0, drops=0, duty_utilisation=duty,
            originated=0, delivered=0, forwarded=0,
        )

        def status(store, tile):
            store.add_status_record(record)
            tile.observe_status(record)

        return [(node, status)]
    _, src, dst, packet_id, ptype, observed = step
    records = [
        PacketRecord(
            node=node, seq=seq + index, timestamp=now, direction=direction, src=src,
            dst=dst, next_hop=dst, prev_hop=src, ptype=ptype, packet_id=packet_id,
            size_bytes=40, attempt=attempt,
        )
        for index, (node, direction, attempt) in enumerate(observed)
    ]

    def observe(store, tile, record):
        store.add_packet_record(record)
        tile.observe_packet(record)

    return [
        (record.node, lambda store, tile, record=record: observe(store, tile, record))
        for record in records
    ]


@settings(max_examples=200, deadline=None)
@given(
    start=st.floats(min_value=0.0, max_value=1e6),
    steps=steps,
)
def test_cached_tile_equals_definition(start, steps):
    store = MetricsStore()
    tile = TileAggregate(store)
    now = start
    report_interval_s = 60.0
    #: The nodes the steps wrote, in the order first written.
    heard = []

    def check(step):
        cached = tile.health(now, report_interval_s)
        expected = definition_health(heard, store, now, report_interval_s)
        assert same_bits(cached, expected), (step, cached, expected)
        assert same_bits(tile.pdr(), metrics.network_pdr(store)), step
        assert tile.node_count == len(heard)

    for number, step in enumerate(steps):
        if step[0] == "clock":
            now += step[1] * report_interval_s
            check(step)
        elif step[0] == "interval":
            report_interval_s = step[1]
            check(step)
        else:
            for node, observe in observations(step, now, seq=10 * number):
                observe(store, tile)
                if node not in heard:
                    heard.append(node)
                check(step)
