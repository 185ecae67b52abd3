"""Unit tests for the push-pipeline hub: fan-out, replay, backpressure."""

import threading

import pytest

from repro.api import StreamHub
from repro.errors import ConfigurationError
from repro.monitor.stream.events import FLEET_TOPIC, network_topic
from repro.monitor.stream.hub import RING_SIZE


def drain(subscription):
    """Every event currently queued (non-blocking)."""
    events = []
    while True:
        event = subscription.get_nowait()
        if event is None:
            return events
        events.append(event)


class TestPublish:
    def test_event_ids_are_monotonic_per_topic(self):
        hub = StreamHub()
        a = [hub.publish("network:a", "ingest-delta", {}) for _ in range(3)]
        b = hub.publish("network:b", "ingest-delta", {})
        assert [event.event_id for event in a] == [1, 2, 3]
        assert b.event_id == 1  # topics count independently

    def test_publish_stamps_clock_when_at_omitted(self):
        hub = StreamHub(clock=lambda: 42.0)
        assert hub.publish("t", "ingest-delta", {}).at == 42.0
        assert hub.publish("t", "ingest-delta", {}, at=7.0).at == 7.0

    def test_publish_after_close_returns_none(self):
        hub = StreamHub()
        hub.close()
        assert hub.publish("t", "ingest-delta", {}) is None


class TestSubscribe:
    def test_subscriber_sees_only_its_topics(self):
        hub = StreamHub()
        subscription = hub.subscribe([network_topic("a")])
        hub.publish(network_topic("a"), "ingest-delta", {"n": 1})
        hub.publish(network_topic("b"), "ingest-delta", {"n": 2})
        hub.publish(FLEET_TOPIC, "fleet-tile", {"n": 3})
        events = drain(subscription)
        assert [event.data["n"] for event in events] == [1]

    def test_multi_topic_subscription(self):
        hub = StreamHub()
        subscription = hub.subscribe([network_topic("a"), FLEET_TOPIC])
        hub.publish(network_topic("a"), "ingest-delta", {})
        hub.publish(FLEET_TOPIC, "fleet-tile", {})
        assert len(drain(subscription)) == 2

    def test_unsubscribe_stops_delivery_and_closes(self):
        hub = StreamHub()
        subscription = hub.subscribe(["t"])
        hub.unsubscribe(subscription)
        assert subscription.closed
        hub.publish("t", "ingest-delta", {})
        assert subscription.get() is None  # closed: returns without blocking
        assert hub.subscriber_count == 0

    def test_get_with_timeout_wakes_on_publish(self):
        hub = StreamHub()
        subscription = hub.subscribe(["t"])
        got = []

        def consume():
            got.append(subscription.get(timeout=5.0))

        thread = threading.Thread(target=consume)
        thread.start()
        hub.publish("t", "ingest-delta", {"x": 1})
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got[0].data == {"x": 1}

    def test_get_without_timeout_blocks_until_publish(self):
        hub = StreamHub()
        subscription = hub.subscribe(["t"])
        got = []

        def consume():
            got.append(subscription.get())  # timeout=None: block

        thread = threading.Thread(target=consume)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()  # still waiting: nothing published yet
        hub.publish("t", "ingest-delta", {"x": 1})
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got[0].data == {"x": 1}

    def test_get_nowait_polls_without_blocking(self):
        hub = StreamHub()
        subscription = hub.subscribe(["t"])
        assert subscription.get_nowait() is None  # empty, not closed
        assert not subscription.closed
        hub.publish("t", "ingest-delta", {"x": 1})
        assert subscription.get_nowait().data == {"x": 1}

    def test_invalid_queue_size_rejected(self):
        hub = StreamHub()
        with pytest.raises(ConfigurationError):
            hub.subscribe(["t"], queue_size=0)


class TestReplayResume:
    def test_resume_replays_only_newer_events(self):
        hub = StreamHub()
        for index in range(5):
            hub.publish("t", "ingest-delta", {"n": index})
        subscription = hub.subscribe(["t"], last_event_ids={"t": 2})
        events = drain(subscription)
        assert [event.event_id for event in events] == [3, 4, 5]
        assert hub.resumes == 1
        assert hub.events_replayed == 3

    def test_resume_past_ring_eviction_shows_id_gap(self):
        hub = StreamHub()
        for index in range(RING_SIZE + 1):
            hub.publish("t", "ingest-delta", {"n": index})
        subscription = hub.subscribe(["t"], last_event_ids={"t": 0})
        events = drain(subscription)
        # Event 1 was evicted from the ring: the client sees the gap in
        # the ids and knows to re-snapshot.
        assert [event.event_id for event in events] == list(range(2, RING_SIZE + 2))

    def test_resume_from_zero_replays_everything_in_ring(self):
        hub = StreamHub()
        hub.publish("t", "ingest-delta", {})
        hub.publish("t", "ingest-delta", {})
        subscription = hub.subscribe(["t"], last_event_ids={"t": 0})
        assert [event.event_id for event in drain(subscription)] == [1, 2]

    def test_replay_then_live_events_stay_ordered(self):
        hub = StreamHub()
        hub.publish("t", "ingest-delta", {})
        subscription = hub.subscribe(["t"], last_event_ids={"t": 0})
        hub.publish("t", "ingest-delta", {})
        assert [event.event_id for event in drain(subscription)] == [1, 2]

    def test_last_event_id_accessor(self):
        hub = StreamHub()
        assert hub.last_event_id("t") == 0
        hub.publish("t", "ingest-delta", {})
        assert hub.last_event_id("t") == 1


class TestBackpressure:
    def test_slow_subscriber_drops_oldest_and_counts(self):
        hub = StreamHub()
        subscription = hub.subscribe(["t"], queue_size=3)
        for index in range(10):
            hub.publish("t", "ingest-delta", {"n": index})
        events = drain(subscription)
        # Oldest evicted: only the newest queue_size events survive.
        assert [event.data["n"] for event in events] == [7, 8, 9]
        assert subscription.stats()["dropped"] == 7
        assert hub.events_dropped == 7

    def test_slow_subscriber_does_not_affect_others(self):
        hub = StreamHub()
        slow = hub.subscribe(["t"], queue_size=1)
        fast = hub.subscribe(["t"], queue_size=100)
        for index in range(5):
            hub.publish("t", "ingest-delta", {"n": index})
        assert len(drain(fast)) == 5
        assert slow.stats()["dropped"] == 4


class TestClose:
    def test_close_wakes_and_closes_all_subscribers(self):
        hub = StreamHub()
        subscriptions = [hub.subscribe(["t"]) for _ in range(3)]
        hub.close()
        for subscription in subscriptions:
            assert subscription.get(timeout=1.0) is None
            assert subscription.closed
        assert hub.subscriber_count == 0

    def test_subscribe_after_close_yields_closed_subscription(self):
        hub = StreamHub()
        hub.close()
        subscription = hub.subscribe(["t"])
        assert subscription.get(timeout=0.1) is None
        assert subscription.closed

    def test_close_idempotent(self):
        hub = StreamHub()
        hub.close()
        hub.close()


class TestStats:
    def test_stats_document_shape(self):
        hub = StreamHub()
        subscription = hub.subscribe(["t"], queue_size=2)
        for _ in range(4):
            hub.publish("t", "ingest-delta", {})
        document = hub.stats_document()
        assert document["topics"] == 1
        assert document["subscribers"] == 1
        assert document["subscribers_peak"] == 1
        assert document["events_published"] == 4
        assert document["events_dropped"] == 2
        assert document["queue_lag_max"] == 2
        [stats] = document["subscriber_stats"]
        assert stats["queued"] == 2
        assert stats["dropped"] == 2
        assert stats["topics"] == ["t"]
        del subscription
