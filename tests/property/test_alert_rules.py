"""Property: each per-node alert rule has one definition.

A per-node rule states its threshold and message once, in
``node_conditions``.  The ingest path judges a node from the tile's
in-memory :class:`NodeDelta`; the periodic sweep judges every node of
the store through ``conditions``.  Both views of the same ingested
telemetry must fire the same messages for every node, at any time
after the last batch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MonitorServer, RecordBatch, StatusRecord
from repro.monitor.alerts import LowPdrRule, default_rules

status_values = st.tuples(
    st.floats(min_value=3.0, max_value=4.2),  # battery_v
    st.floats(min_value=0.0, max_value=1.0),  # duty_utilisation
    st.integers(min_value=0, max_value=20),  # queue_depth
)
batches = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),  # node
        st.floats(min_value=0.0, max_value=400.0),  # server-clock step
        st.lists(status_values, max_size=2),
    ),
    min_size=1,
    max_size=30,
)


def status_record(node, seq, now, battery_v, duty_utilisation, queue_depth):
    return StatusRecord(
        node=node, seq=seq, timestamp=now, uptime_s=now, queue_depth=queue_depth,
        route_count=1, neighbor_count=1, battery_v=battery_v, tx_frames=0,
        tx_airtime_s=0.0, retransmissions=0, drops=0,
        duty_utilisation=duty_utilisation, originated=0, delivered=0, forwarded=0,
    )


class TestStoreSweepEqualsDeltaPath:
    @given(batches, st.floats(min_value=0.0, max_value=1000.0))
    @settings(max_examples=100, deadline=None)
    def test_every_node_fires_the_same_messages(self, plan, silence):
        clock = {"now": 0.0}
        server = MonitorServer(clock=lambda: clock["now"])
        next_seq = {}
        for batch_seq, (node, step, statuses) in enumerate(plan):
            clock["now"] += step
            records = []
            for values in statuses:
                seq = next_seq.get(node, 0)
                next_seq[node] = seq + 1
                records.append(status_record(node, seq, clock["now"], *values))
            server.submit(
                RecordBatch(
                    node=node, batch_seq=batch_seq, sent_at=clock["now"],
                    status_records=tuple(records),
                )
            )
        now = clock["now"] + silence
        shard = server.shard_for("default")
        for rule in default_rules():
            if isinstance(rule, LowPdrRule):
                continue
            firing = rule.conditions(shard.store, now)
            for node in shard.store.nodes():
                delta = shard.tile.node_delta(node)
                expected = rule.node_conditions(delta, now) or []
                assert [message for n, message in firing if n == node] == expected
