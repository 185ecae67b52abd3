"""Property: a page view read from the store's aggregate equals the scans.

``Dashboard.to_json_dict`` reads the ``ViewAggregate`` each store keeps
at write time; the ``metrics.py`` scans are the definition.  Random
batches go through ``MonitorServer.submit`` — resent batches (dedup),
seqs out of order inside a batch, timestamps out of order and on both
sides of the 1800 s health window, records with and without RSSI, a
retention bound of 1-4 packet records per node so eviction runs, and
clock steps across the window — and after every step the document must
equal the one built from the scans, byte for byte.  The SQLite store
runs the same steps plus close-and-reopen, after which the seeded
aggregate must still agree (and replayed batches replace stored rows).
Status records arrive with repeated and decreasing seqs, and the
oracle's node rows come from the status scans and the harness's own
record of the batches it submitted, not from the store's node state.
The alerts a view shows are the server's: after a full sweep, the
(rule, node) pairs a view lists must be the ones an engine judging
``LowPdrRule`` from the scans finds firing at the same time.
"""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BROADCAST, Dashboard, MetricsStore, MonitorServer, PacketType
from repro.monitor.aggregate import SortedList
from repro.monitor.records import Direction, PacketRecord, RecordBatch, StatusRecord
from repro.monitor.sqlitestore import SqliteMetricsStore
from tests.view_oracle import canonical, scan_alert_engine, scan_document

@pytest.fixture(autouse=True, scope="module")
def tiny_blocks():
    """Blocks of at most 4 events or latencies, so the few records of an
    example split blocks, empty them and span windows across them."""
    load = SortedList.LOAD
    SortedList.LOAD = 2
    yield
    SortedList.LOAD = load


NODES = (1, 2, 3, 4)
DATA = int(PacketType.DATA)
HELLO = int(PacketType.HELLO)
REPORT_INTERVAL_S = 60.0

nodes = st.sampled_from(NODES)
#: Offsets from the clock on a quarter-second grid: ties, and records
#: right at, inside and outside the 1800 s window's edges.
offsets = st.one_of(
    st.sampled_from([-1800.25, -1800.0, -1799.75, -0.25, 0.0, 0.25]),
    st.integers(min_value=-7300, max_value=400).map(lambda quarters: quarters / 4),
)
#: RSSI/SNR in tenths, as the wire carries them (not exact in binary).
rssis = st.integers(min_value=-1300, max_value=-300).map(lambda tenths: tenths / 10)
snrs = st.integers(min_value=-200, max_value=150).map(lambda tenths: tenths / 10)
quality = st.one_of(st.tuples(rssis, snrs), st.tuples(rssis, snrs), st.tuples(st.none(), snrs))
airtimes = st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0))
packet_ids = st.integers(min_value=0, max_value=3)
attempts = st.sampled_from([1, 1, 2])
roles = st.sampled_from(["origin", "origin", "destination", "destination", "relay", "overhear"])


@st.composite
def packets(draw):
    """Observations of one DATA packet (src, dst, id), each at its observer:
    OUT at the origin (first try or retry, maybe twice), IN at the
    destination (maybe twice), OUT at a relay, IN where it was overheard."""
    src = draw(nodes)
    dst = draw(nodes)
    if dst == src:
        dst = BROADCAST
    packet_id = draw(packet_ids)
    observed = []
    for role in draw(st.lists(roles, min_size=1, max_size=4)):
        offset = draw(offsets)
        if role == "origin":
            record = dict(node=src, direction=Direction.OUT, attempt=draw(attempts),
                          airtime_s=draw(airtimes))
        elif role == "relay":
            record = dict(node=draw(nodes), direction=Direction.OUT, airtime_s=draw(airtimes))
        else:
            rssi, snr = draw(quality)
            node = dst if role == "destination" and dst != BROADCAST else draw(nodes)
            record = dict(node=node, direction=Direction.IN, rssi_dbm=rssi, snr_db=snr)
        record.update(
            src=src, dst=dst, next_hop=dst, prev_hop=src, ptype=DATA, packet_id=packet_id,
            size_bytes=40,
        )
        observed.append((offset, record))
    return ("packet", observed, draw(st.booleans()))


#: Broadcast HELLOs: sent by the batch's node, or heard from a neighbour.
hellos = st.tuples(st.sampled_from(["hello", "heard"]), nodes, offsets, quality, airtimes)

batches = st.tuples(
    st.just("batch"),
    nodes,
    st.lists(hellos, min_size=0, max_size=4),
    # The seq of its status record, or no status: seqs repeat (dedup)
    # and go back, so a late lower seq arrives after a higher one.
    st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    st.booleans(),  # seqs shuffled inside the batch
)
resends = st.tuples(st.just("resend"), st.integers(min_value=0, max_value=50))
clock_steps = st.tuples(
    st.just("clock"), st.sampled_from([0.25, 60.0, 900.0, 1799.75, 1800.0, 1800.25, 3600.0])
)


def hello(node, hello_step):
    """The fields of one broadcast HELLO record at ``node``."""
    kind, peer, offset, (rssi, snr), airtime = hello_step
    if kind == "hello":
        fields = dict(direction=Direction.OUT, src=node, prev_hop=node, airtime_s=airtime)
    else:
        heard = peer if peer != node else node % len(NODES) + 1
        fields = dict(direction=Direction.IN, src=heard, prev_hop=heard, rssi_dbm=rssi, snr_db=snr)
    fields.update(
        node=node, dst=BROADCAST, next_hop=BROADCAST, ptype=HELLO, packet_id=0, size_bytes=22
    )
    return offset, fields


class Harness:
    """A server over one store, its dashboard and the scan oracle."""

    def __init__(self, store):
        self.now = 0.0
        self.seqs = {node: 0 for node in NODES}
        self.sent = []
        #: Node -> (server time of its last batch, highest cumulative
        #: drop count among its batches): what the harness submitted,
        #: for the oracle.
        self.batches = {}
        #: Node -> the cumulative drop count its next batch reports.
        self.dropped = {node: 0 for node in NODES}
        self.attach(store)

    def attach(self, store):
        self.store = store
        self.server = MonitorServer(
            store=store, clock=lambda: self.now, report_interval_s=REPORT_INTERVAL_S
        )
        self.dashboard = Dashboard(store, report_interval_s=REPORT_INTERVAL_S)
        self.oracle_alerts = scan_alert_engine(store, REPORT_INTERVAL_S)

    def apply(self, step, rng):
        kind = step[0]
        if kind == "clock":
            self.now += step[1]
        elif kind == "resend":
            if self.sent:
                self.deliver(self.sent[step[1] % len(self.sent)])
        elif kind == "batch":
            _, node, steps, status_seq, shuffle = step
            self.submit(node, [hello(node, item) for item in steps], status_seq, shuffle, rng)
        elif kind == "packet":
            _, observed, shuffle = step
            by_node = {}
            for offset, fields in observed:
                by_node.setdefault(fields["node"], []).append((offset, fields))
            for node, fields in by_node.items():
                self.submit(node, fields, None, shuffle, rng)
        else:
            raise AssertionError(step)

    def deliver(self, batch):
        """Submit ``batch`` now and note it for the oracle."""
        assert self.server.submit(batch).ok
        _last, drops = self.batches.get(batch.node, (None, 0))
        self.batches[batch.node] = (self.now, max(drops, batch.dropped_records))

    def submit(self, node, observed, status_seq, shuffle, rng):
        """One batch from ``node``: a record per (offset, fields), seqs
        fresh but maybe out of order, a status record of ``status_seq``
        unless it is None, and the client's drops so far (a few more each
        batch)."""
        seqs = list(range(self.seqs[node], self.seqs[node] + len(observed)))
        self.seqs[node] += len(observed)
        self.dropped[node] += len(self.sent) % 3
        if shuffle:
            rng.shuffle(seqs)
        records = tuple(
            PacketRecord(seq=seq, timestamp=self.now + offset, **fields)
            for seq, (offset, fields) in zip(seqs, observed)
        )
        status = ()
        if status_seq is not None:
            seq = status_seq
            status = (StatusRecord(
                node=node, seq=seq, timestamp=self.now, uptime_s=self.now,
                queue_depth=seq % 12, route_count=3, neighbor_count=2,
                battery_v=3.0 + (seq % 7) * 0.2, tx_frames=seq, tx_airtime_s=0.1,
                retransmissions=0, drops=0, duty_utilisation=(seq % 5) * 0.25,
                originated=seq, delivered=0, forwarded=0,
            ),)
        batch = RecordBatch(
            node=node, batch_seq=len(self.sent), sent_at=self.now,
            packet_records=records, status_records=status,
            dropped_records=self.dropped[node],
        )
        self.sent.append(batch)
        self.deliver(batch)

    def check(self, step):
        view = canonical(self.dashboard.to_json_dict(self.now))
        expected = canonical(scan_document(self.dashboard, self.now, self.batches))
        assert view == expected, step
        self.server.sweep_alerts(self.now)
        served = Dashboard(
            self.store, report_interval_s=REPORT_INTERVAL_S, monitor_server=self.server
        ).to_json_dict(self.now)["alerts"]
        self.oracle_alerts.evaluate(self.now)
        firing = {(alert.rule, alert.node) for alert in self.oracle_alerts.active()}
        assert {(alert["rule"], alert["node"]) for alert in served} == firing, step


steps = st.lists(
    st.one_of(packets(), packets(), packets(), batches, resends, clock_steps, clock_steps),
    min_size=1,
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(retention=st.integers(min_value=1, max_value=4), steps=steps, seed=st.integers(0, 2**16))
def test_memory_store_view_equals_scans(retention, steps, seed):
    rng = random.Random(seed)
    harness = Harness(MetricsStore(max_packet_records_per_node=retention))
    for step in steps:
        harness.apply(step, rng)
        harness.check(step)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            packets(), packets(), packets(), batches, resends, clock_steps, st.just(("reopen",))
        ),
        min_size=1,
        max_size=25,
    ),
    seed=st.integers(0, 2**16),
)
def test_sqlite_store_view_equals_scans_across_reopen(steps, seed):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "net.sqlite")
        harness = Harness(SqliteMetricsStore(path, flush_interval_s=None))
        try:
            for step in steps:
                if step[0] == "reopen":
                    harness.server.close()
                    harness.attach(SqliteMetricsStore(path, flush_interval_s=None))
                else:
                    harness.apply(step, rng)
                harness.check(step)
        finally:
            harness.server.close()
