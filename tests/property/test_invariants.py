"""Property-based tests on core invariants: airtime, duty cycle, dedup,
sequence windows, routing and reassembly."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mesh.flooding import DedupCache
from repro.mesh.packet import RoutePayload, RouteVectorEntry
from repro.mesh.routing import RouteTable
from repro.mesh.transport import Reassembler, segment_message
from repro.monitor.ingest import SeqWindow
from repro.phy.airtime import time_on_air
from repro.phy.params import LoRaParams
from repro.phy.regional import DutyCycleTracker, EU868_CHANNELS
from repro.units import db_sum

valid_sfs = st.integers(min_value=7, max_value=12)
payload_sizes = st.integers(min_value=0, max_value=255)


class TestAirtimeProperties:
    @given(valid_sfs, payload_sizes, payload_sizes)
    def test_monotonic_in_payload(self, sf, a, b):
        params = LoRaParams(spreading_factor=sf)
        small, large = sorted((a, b))
        assert time_on_air(params, small) <= time_on_air(params, large)

    @given(payload_sizes, st.integers(7, 11))
    def test_monotonic_in_sf(self, size, sf):
        slow = time_on_air(LoRaParams(spreading_factor=sf + 1), size)
        fast = time_on_air(LoRaParams(spreading_factor=sf), size)
        assert slow > fast

    @given(valid_sfs, payload_sizes)
    def test_airtime_is_positive_and_bounded(self, sf, size):
        airtime = time_on_air(LoRaParams(spreading_factor=sf), size)
        assert 0 < airtime < 10.0  # SF12 255B is ~9 s

    @given(valid_sfs, payload_sizes, st.sampled_from([125_000, 250_000, 500_000]))
    def test_wider_bandwidth_is_faster(self, sf, size, bw):
        if bw == 500_000:
            return
        narrow = time_on_air(LoRaParams(spreading_factor=sf, bandwidth_hz=bw), size)
        wide = time_on_air(LoRaParams(spreading_factor=sf, bandwidth_hz=bw * 2), size)
        assert wide < narrow


class TestDbSum:
    @given(st.lists(st.floats(-150, 20, allow_nan=False), min_size=1, max_size=10))
    def test_sum_at_least_max(self, levels):
        total = db_sum(levels)
        assert total >= max(levels) - 1e-9

    @given(st.lists(st.floats(-150, 20, allow_nan=False), min_size=1, max_size=10))
    def test_sum_bounded_by_max_plus_10log_n(self, levels):
        import math
        total = db_sum(levels)
        assert total <= max(levels) + 10 * math.log10(len(levels)) + 1e-9


class TestDutyCycleProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 3600.0, allow_nan=False),   # time offsets
                st.floats(0.001, 2.0, allow_nan=False),     # airtimes
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_non_enforcing_accounting_is_exact(self, events):
        tracker = DutyCycleTracker(window_s=3600.0, enforce=False)
        events = sorted(events)
        total = 0.0
        for offset, airtime in events:
            tracker.record(EU868_CHANNELS[0], airtime, now=offset)
            total += airtime
        assert abs(tracker.total_airtime_s() - total) < 1e-9

    @given(
        st.lists(st.floats(0.001, 1.0, allow_nan=False), min_size=1, max_size=100)
    )
    def test_enforced_never_exceeds_budget(self, airtimes):
        tracker = DutyCycleTracker(window_s=100.0, enforce=True)
        budget = 0.01 * 100.0
        used = 0.0
        now = 0.0
        for airtime in airtimes:
            if tracker.can_transmit(EU868_CHANNELS[0], airtime, now):
                tracker.record(EU868_CHANNELS[0], airtime, now)
                used += airtime
            now += 0.01  # all inside one window
        assert used <= budget + 1e-9


class TestDedupProperties:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 20)), max_size=200))
    def test_first_occurrence_unique(self, keys):
        cache = DedupCache(capacity=10_000)
        fresh = [key for index, key in enumerate(keys) if not cache.seen_before(key, float(index))]
        # Every distinct key appears exactly once in the fresh list.
        assert len(fresh) == len(set(fresh)) == len(set(keys))


class TestSeqWindowProperties:
    @given(st.lists(st.integers(0, 1000), max_size=300))
    def test_accepts_each_seq_at_most_once(self, seqs):
        window = SeqWindow(capacity=50)
        accepted = [seq for seq in seqs if window.check_and_add(seq)]
        assert len(accepted) == len(set(accepted))

    @given(st.sets(st.integers(0, 10_000), max_size=200))
    def test_all_distinct_seqs_accepted_in_increasing_order(self, seqs):
        window = SeqWindow(capacity=64)
        for seq in sorted(seqs):
            assert window.check_and_add(seq)


class TestReassemblyProperties:
    @given(
        st.binary(min_size=0, max_size=2000),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50)
    def test_any_arrival_order_reassembles(self, payload, rng):
        fragments = segment_message(1, payload, mtu=100)
        order = list(fragments)
        rng.shuffle(order)
        reassembler = Reassembler()
        results = [reassembler.push(1, fragment, now=0.0) for fragment in order]
        completed = [result for result in results if result is not None]
        assert completed == [payload]

    @given(
        st.binary(min_size=0, max_size=1000),
        st.integers(0, 5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50)
    def test_duplicates_never_corrupt(self, payload, extra_dupes, rng):
        fragments = segment_message(1, payload, mtu=80)
        stream = list(fragments) + [rng.choice(fragments) for _ in range(extra_dupes)]
        rng.shuffle(stream)
        reassembler = Reassembler()
        completed = [
            result
            for fragment in stream
            if (result := reassembler.push(1, fragment, now=0.0)) is not None
        ]
        assert all(result == payload for result in completed)
        assert len(completed) >= 1


class TestRoutingProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(2, 6),                       # advertising neighbor
                st.lists(
                    st.tuples(st.integers(1, 10), st.integers(0, 16)),
                    max_size=8,
                ),
            ),
            max_size=30,
        )
    )
    def test_metrics_always_within_bounds_and_next_hop_is_neighbor(self, updates):
        table = RouteTable(own_address=1, infinity_metric=16, route_timeout_s=1e9)
        heard_from = set()
        for index, (sender, vector) in enumerate(updates):
            heard_from.add(sender)
            payload = RoutePayload(
                entries=[RouteVectorEntry(dst, metric) for dst, metric in vector]
            )
            table.apply_vector(sender, payload, now=float(index))
        for entry in table.entries():
            assert 1 <= entry.metric <= 16
            assert entry.next_hop in heard_from
            assert entry.dst != 1  # never a route to self
