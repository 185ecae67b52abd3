"""Property: the kept delivery window and the kept rows equal a recompute.

``ViewAggregate.window_delivery`` keeps its last window and moves it by
the events that left and entered it; ``links``/``delivery`` keep each
row until a write changes its link or pair.  Random DATA sends,
deliveries, retries and overheard frames are written on a quarter-second
grid around the window's edges, the in-memory store evicts (a retention
bound of 1-4 records per node) and the SQLite store replaces rows
(records rewritten under a stored ``(node, seq)``).  The clock moves
forward a little, past the window, and back, and reads use windows of
different lengths.  Sends are often followed by their delivery, so
windows hold delivered packets.  After every read the window must equal the scan of
the event index (``tests.view_oracle.scan_window_delivery``) and the
``metrics.pdr_matrix`` definition, and the rows must equal those of a
fresh aggregate fed the stored records.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BROADCAST, MetricsStore, PacketType
from repro.monitor import metrics
from repro.monitor.aggregate import SortedList, ViewAggregate
from repro.monitor.records import Direction, PacketRecord
from repro.monitor.sqlitestore import SqliteMetricsStore
from tests.view_oracle import scan_window_delivery


@pytest.fixture(autouse=True, scope="module")
def tiny_blocks():
    """Blocks of at most 4 events, so windows start and end inside,
    between and across blocks."""
    load = SortedList.LOAD
    SortedList.LOAD = 2
    yield
    SortedList.LOAD = load


NODES = (1, 2, 3)
DATA = int(PacketType.DATA)
LENGTHS = (1800.0, 900.0, 1800.25)

nodes = st.sampled_from(NODES)
#: Offsets from the clock: at, inside and outside the edges of every
#: window length, and a quarter-second grid around them.
offsets = st.one_of(
    st.sampled_from([-1800.25, -1800.0, -1799.75, -900.0, -0.25, 0.0, 0.25]),
    st.integers(min_value=-8000, max_value=400).map(lambda quarters: quarters / 4),
)
roles = st.sampled_from(["send", "send", "deliver", "deliver", "retry", "overhear"])
#: (src, dst-or-broadcast choice, packet id, role, offset, rssi in tenths)
writes = st.tuples(
    st.just("write"), nodes, nodes, st.integers(0, 3), roles, offsets, st.integers(-1200, -400)
)
#: A send and its delivery (src, dst, packet id, send offset, delay): the
#: packets that count as delivered when both ends fall in the window.
deliveries = st.tuples(
    st.just("delivery"), nodes, nodes, st.integers(0, 3), offsets,
    st.sampled_from([0.0, 0.25, 1.0, 60.0, 900.0, 1800.25]),
)
rewrites = st.tuples(st.just("rewrite"), st.integers(0, 60), writes)
clocks = st.tuples(
    st.just("clock"), st.sampled_from([0.25, 1.0, 60.0, 899.75, 1800.0, 3600.0, -0.25, -60.0])
)
reads = st.tuples(st.just("read"), st.sampled_from(LENGTHS), st.booleans())


def observer(step):
    """The node a ``write`` step's record is observed at."""
    _, src, dst, _packet_id, role, _offset, _rssi = step
    if role in ("send", "retry"):
        return src
    if role == "deliver" or dst == src:
        return dst
    return 6 - src - dst  # the third node overheard it


def record(node, seq, now, step):
    """The packet record of one ``write`` step, observed at ``node``."""
    _, src, dst, packet_id, role, offset, rssi = step
    if dst == src:
        dst = BROADCAST
    fields = dict(
        node=node, seq=seq, timestamp=now + offset, src=src, dst=dst, next_hop=dst,
        prev_hop=src, ptype=DATA, packet_id=packet_id, size_bytes=40,
    )
    if role in ("send", "retry"):
        attempt = 1 if role == "send" else 2
        return PacketRecord(direction=Direction.OUT, attempt=attempt, airtime_s=0.1, **fields)
    return PacketRecord(direction=Direction.IN, rssi_dbm=rssi / 10, snr_db=5.0, **fields)


class Harness:
    def __init__(self, store):
        self.store = store
        self.now = 0.0
        self.seqs = {}
        #: (node, seq) of every record written, for rewrites.
        self.written = []

    def write(self, step):
        node = observer(step)
        seq = self.seqs.get(node, 0)
        self.seqs[node] = seq + 1
        self.written.append((node, seq))
        self.store.add_packet_record(record(node, seq, self.now, step))

    def rewrite(self, index, step):
        """Write ``step`` under an earlier record's (node, seq): the SQLite
        store replaces that row."""
        if self.written:
            node, seq = self.written[index % len(self.written)]
            self.store.add_packet_record(record(node, seq, self.now, step))

    def apply(self, step):
        kind = step[0]
        if kind == "write":
            self.write(step)
        elif kind == "delivery":
            _, src, dst, packet_id, offset, delay = step
            self.write(("write", src, dst, packet_id, "send", offset, -1000))
            self.write(("write", src, dst, packet_id, "deliver", offset + delay, -1000))
        elif kind == "rewrite":
            self.rewrite(step[1], step[2])
        elif kind == "clock":
            self.now += step[1]
        else:
            self.check(*step[1:])

    def check(self, length, twice):
        aggregate = self.store.aggregate
        since, until = self.now - length, self.now
        expected = scan_window_delivery(aggregate, since, until)
        assert aggregate.window_delivery(since, until) == expected
        if twice:
            assert aggregate.window_delivery(since, until) == expected
        defined = metrics.pdr_matrix(self.store, since=since, until=until)
        assert expected == {
            key: (pair.sent, pair.delivered) for key, pair in defined.items() if pair.sent
        }
        sources = {}
        for (src, _dst), (sent, delivered) in expected.items():
            total_sent, total_delivered = sources.get(src, (0, 0))
            sources[src] = (total_sent + sent, total_delivered + delivered)
        assert aggregate.window_sources(since, until) == sources
        rebuilt = ViewAggregate()
        rebuilt.add_records(self.store.packet_records())
        assert aggregate.links() == rebuilt.links()
        assert aggregate.delivery() == rebuilt.delivery()


@settings(max_examples=200, deadline=None)
@given(
    retention=st.integers(min_value=1, max_value=4),
    steps=st.lists(st.one_of(writes, writes, deliveries, clocks, reads, reads), max_size=40),
)
def test_memory_store_window_and_rows_equal_a_recompute(retention, steps):
    harness = Harness(MetricsStore(max_packet_records_per_node=retention))
    for step in steps + [("read", 1800.0, False)]:
        harness.apply(step)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.one_of(writes, deliveries, rewrites, rewrites, clocks, reads, reads), max_size=40
    )
)
def test_sqlite_store_window_and_rows_equal_a_recompute(steps):
    with tempfile.TemporaryDirectory() as directory:
        store = SqliteMetricsStore(os.path.join(directory, "net.sqlite"), flush_interval_s=None)
        try:
            harness = Harness(store)
            for step in steps + [("read", 1800.0, False)]:
                harness.apply(step)
        finally:
            store.close()
