"""Property: the incremental rollup is bucket-identical to the batch rollup.

The push pipeline feeds :class:`IncrementalRollup` record-by-record at
ingest time; the history route builds a :class:`RollupSeries` from the
store after the fact.  The dashboards only stay consistent if the two
agree bucket-for-bucket over *any* sample sequence — including
out-of-order timestamps (uplink retries reorder batches) and duplicate
timestamps (two records in one flush share a clock reading).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import IncrementalRollup
from repro.monitor.rollup import Bucket, RollupSeries, bucket_document

timestamps = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
samples = st.lists(st.tuples(timestamps, values), max_size=200)
intervals = st.sampled_from([1.0, 60.0, 300.0, 3600.0])


def as_documents(series):
    return [bucket_document(bucket, series.interval_s) for bucket in series.buckets()]


class TestIncrementalEqualsBatch:
    @given(samples, intervals)
    @settings(max_examples=200)
    def test_bucket_identical_for_any_sample_order(self, sample_list, interval_s):
        batch = RollupSeries(interval_s=interval_s)
        incremental = IncrementalRollup(interval_s=interval_s)
        for timestamp, value in sample_list:
            batch.add(timestamp, value)
            incremental.add(timestamp, value)
        assert as_documents(incremental) == as_documents(batch)

    @given(samples, intervals)
    @settings(max_examples=100)
    def test_order_independent_including_duplicates(self, sample_list, interval_s):
        # Duplicate every sample and reverse: same buckets' count/min/max,
        # and the mean stays within the clamped [min, max] invariant.
        doubled = sample_list + sample_list
        forward = IncrementalRollup(interval_s=interval_s)
        backward = IncrementalRollup(interval_s=interval_s)
        for timestamp, value in doubled:
            forward.add(timestamp, value)
        for timestamp, value in reversed(doubled):
            backward.add(timestamp, value)
        fwd, bwd = as_documents(forward), as_documents(backward)
        assert len(fwd) == len(bwd)
        for left, right in zip(fwd, bwd):
            assert left["start"] == right["start"]
            assert left["count"] == right["count"]
            assert left["min"] == right["min"]
            assert left["max"] == right["max"]
            # Float summation order can move the mean by an ulp; the
            # clamp guarantees it stays inside [min, max] either way.
            assert left["mean"] == right["mean"] or math.isclose(
                left["mean"], right["mean"], rel_tol=1e-9, abs_tol=1e-9
            )
            assert left["min"] <= left["mean"] <= left["max"]

    @given(samples, intervals)
    @settings(max_examples=100)
    def test_drain_updates_reports_exactly_touched_buckets(self, sample_list, interval_s):
        incremental = IncrementalRollup(interval_s=interval_s)
        for timestamp, value in sample_list:
            incremental.add(timestamp, value)
        touched = {
            int(timestamp // interval_s) * interval_s for timestamp, _ in sample_list
        }
        drained = incremental.drain_updates()
        assert {bucket.start for bucket in drained} == touched
        assert [bucket.start for bucket in drained] == sorted(
            bucket.start for bucket in drained
        )
        # Second drain with no new samples is empty; a new sample dirties
        # exactly its bucket again.
        assert incremental.drain_updates() == []
        incremental.add(0.0, 1.0)
        assert [bucket.start for bucket in incremental.drain_updates()] == [0.0]

    @given(samples)
    @settings(max_examples=50)
    def test_drained_buckets_are_live_aggregates(self, sample_list):
        # drain_updates returns the Bucket objects themselves (the stream
        # publishes a snapshot document); later samples keep updating them.
        incremental = IncrementalRollup(interval_s=60.0)
        for timestamp, value in sample_list:
            incremental.add(timestamp, value)
        drained = incremental.drain_updates()
        assert all(isinstance(bucket, Bucket) for bucket in drained)
        total = sum(bucket.count for bucket in drained)
        assert total == len(sample_list)
