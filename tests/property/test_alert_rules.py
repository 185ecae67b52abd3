"""Property: each per-node alert rule has one definition.

A per-node rule states its threshold and message once, in
``node_conditions``.  The ingest path judges a node from the tile's
:class:`NodeDelta`; the periodic sweep judges every node of the store
through ``conditions``.  Both views of the same ingested telemetry must
fire the same messages for every node, at any time after the last
batch, on either store backend, with a node's status records delivered
across batches out of seq order (a late lower seq never becomes the
node's latest state).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MetricsStore, MonitorServer, RecordBatch, StatusRecord
from repro.monitor.alerts import LowPdrRule, default_rules, node_snapshots
from repro.monitor.sqlitestore import SqliteMetricsStore

status_values = st.tuples(
    st.integers(min_value=0, max_value=12),  # seq: out of order, repeats dedup
    st.floats(min_value=3.0, max_value=4.2),  # battery_v
    st.floats(min_value=0.0, max_value=1.0),  # duty_utilisation
    st.integers(min_value=0, max_value=20),  # queue_depth
)
batches = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),  # node
        st.floats(min_value=0.0, max_value=400.0),  # server-clock step
        st.lists(status_values, max_size=2, unique_by=lambda values: values[0]),
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


def check_same_messages(store, plan, silence):
    """Submit ``plan`` into a server over ``store``, then compare the
    sweep's and the delta path's messages node by node."""
    clock = {"now": 0.0}
    server = MonitorServer(store=store, clock=lambda: clock["now"])
    try:
        for batch_seq, (node, step, statuses) in enumerate(plan):
            clock["now"] += step
            records = tuple(
                status_record(node, seq, clock["now"], *values) for seq, *values in statuses
            )
            server.submit(
                RecordBatch(
                    node=node, batch_seq=batch_seq, sent_at=clock["now"],
                    status_records=records,
                )
            )
        now = clock["now"] + silence
        shard = server.shard_for("default")
        for node in shard.store.nodes():
            latest = shard.store.latest_status(node)
            stored = list(shard.store.status_records(node))
            assert latest == (max(stored, key=lambda r: r.seq) if stored else None)
        for rule in default_rules():
            if isinstance(rule, LowPdrRule):
                continue
            firing = rule.conditions(shard.store, now, node_snapshots(shard.store))
            for node in shard.store.nodes():
                delta = shard.tile.node_delta(node)
                expected = rule.node_conditions(delta, now) or []
                assert [message for n, message in firing if n == node] == expected
    finally:
        server.close()


class TestStoreSweepEqualsDeltaPath:
    @given(plan=batches, silence=st.floats(min_value=0.0, max_value=1000.0))
    @settings(max_examples=100, deadline=None)
    def test_every_node_fires_the_same_messages(self, plan, silence):
        check_same_messages(MetricsStore(), plan, silence)

    @given(plan=batches, silence=st.floats(min_value=0.0, max_value=1000.0))
    @settings(max_examples=100, deadline=None)
    def test_every_node_fires_the_same_messages_on_sqlite(self, plan, silence):
        check_same_messages(SqliteMetricsStore(flush_interval_s=None), plan, silence)
