"""Unit tests for the ingest-time view aggregate."""

import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import metrics
from repro.monitor.aggregate import ExactSum, SortedList, ViewAggregate
from repro.monitor.records import Direction, PacketRecord
from repro.monitor.sqlitestore import SqliteMetricsStore
from repro.monitor.storage import MetricsStore

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
values = st.one_of(
    finite,
    st.integers(min_value=-1300, max_value=0).map(lambda tenths: tenths / 10),
    st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1e-300, 2.0**52]),
)


@settings(max_examples=300, deadline=None)
@given(
    operations=st.lists(st.tuples(st.booleans(), values, st.integers(0, 1000)), max_size=40)
)
def test_exact_sum_equals_fsum_of_what_remains(operations):
    """After any sequence of adds and removes, the value is math.fsum of
    the values added and not removed."""
    total = ExactSum()
    kept = []
    for add, value, pick in operations:
        if add or not kept:
            total.add(value)
            kept.append(value)
        else:
            total.remove(kept.pop(pick % len(kept)))
        assert total.value == math.fsum(kept)


class TinySortedList(SortedList):
    """Blocks of at most 4 items, so a few operations split and empty them."""

    LOAD = 2


@settings(max_examples=300, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["add", "add", "remove", "missing"]), st.integers(-20, 20)),
        max_size=80,
    ),
    window=st.tuples(st.integers(-22, 22), st.integers(-22, 22)),
)
def test_sorted_list_behaves_as_a_sorted_list(operations, window):
    blocks = TinySortedList()
    plain = []
    for operation, value in operations:
        if operation == "add":
            blocks.add(value)
            plain.append(value)
            plain.sort()
        elif operation == "remove" and plain:
            value = plain[value % len(plain)]
            blocks.remove(value)
            plain.remove(value)
        elif value not in plain:
            try:
                blocks.remove(value)
            except ValueError:
                pass
            else:
                raise AssertionError(f"removed {value} that is not there")
        assert list(blocks) == plain and len(blocks) == len(plain)
    assert [blocks[rank] for rank in range(len(plain))] == plain
    low, high = window
    assert list(blocks.between(low, high)) == [value for value in plain if low <= value < high]


def in_record(node, seq, rssi, snr=3.0, prev_hop=1, ts=0.0):
    return PacketRecord(
        node=node, seq=seq, timestamp=ts, direction=Direction.IN, src=prev_hop,
        dst=0xFFFF, next_hop=0xFFFF, prev_hop=prev_hop, ptype=1, packet_id=seq,
        size_bytes=22, rssi_dbm=rssi, snr_db=snr,
    )


class TestEviction:
    def test_evicted_extremes_leave_the_link(self):
        store = MetricsStore(max_packet_records_per_node=2)
        store.add_packet_records(
            [in_record(2, 0, -60.0), in_record(2, 1, -110.0), in_record(2, 2, -90.0)]
        )
        (row,) = store.aggregate.links()
        assert (row["tx"], row["rx"], row["frames"], row["rssi_min"], row["rssi_max"]) == (
            1, 2, 2, -110.0, -90.0
        )
        assert row["rssi_mean"] == metrics.link_quality(store)[(1, 2)].rssi_mean

    def test_a_link_whose_frames_are_all_evicted_disappears(self):
        store = MetricsStore(max_packet_records_per_node=1)
        store.add_packet_record(in_record(2, 0, -60.0, prev_hop=1))
        store.add_packet_record(in_record(2, 1, -70.0, prev_hop=3))
        assert [(row["tx"], row["rx"]) for row in store.aggregate.links()] == [(3, 2)]


class TestWindow:
    def test_window_edges_are_inclusive_and_exact(self):
        aggregate = ViewAggregate()
        aggregate.add_records([
            PacketRecord(
                node=1, seq=seq, timestamp=ts, direction=Direction.OUT, src=1, dst=2,
                next_hop=2, prev_hop=1, ptype=3, packet_id=seq, size_bytes=40,
            )
            for seq, ts in enumerate((99.75, 100.0, 1900.0, 1900.25))
        ])
        assert aggregate.window_delivery(100.0, 1900.0) == {(1, 2): (2, 0)}


class TestSqliteReplacement:
    def test_replayed_row_replaces_the_stored_record_after_reopen(self, tmp_path):
        path = os.path.join(tmp_path, "net.sqlite")
        with SqliteMetricsStore(path) as store:
            store.add_packet_records([in_record(2, 0, -60.0), in_record(2, 1, -70.0)])
        with SqliteMetricsStore(path) as store:
            assert [row["frames"] for row in store.aggregate.links()] == [2]
            store.add_packet_record(in_record(2, 0, -100.0))
            (row,) = store.aggregate.links()
            assert (row["frames"], row["rssi_min"], row["rssi_max"]) == (2, -100.0, -70.0)
            assert row["rssi_mean"] == metrics.link_quality(store)[(1, 2)].rssi_mean == -85.0
