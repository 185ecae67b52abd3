"""Unit tests for the trace log."""

import pytest

from repro.errors import SimulationError
from repro.sim.trace import TraceLog, TraceSubscription


class TestTraceLog:
    def test_emit_and_count(self):
        trace = TraceLog()
        trace.emit(1.0, "phy.tx", node=1)
        trace.emit(2.0, "phy.tx", node=2)
        trace.emit(3.0, "phy.rx", node=1)
        assert trace.count("phy.tx") == 2
        assert trace.count("phy.rx") == 1
        assert trace.count("missing") == 0

    def test_filter_by_kind_and_node(self):
        trace = TraceLog()
        trace.emit(1.0, "a", node=1)
        trace.emit(2.0, "a", node=2)
        trace.emit(3.0, "b", node=1)
        assert [e.time for e in trace.events(kind="a")] == [1.0, 2.0]
        assert [e.time for e in trace.events(node=1)] == [1.0, 3.0]
        assert [e.time for e in trace.events(kind="a", node=2)] == [2.0]

    def test_data_payload_is_kept(self):
        trace = TraceLog()
        event = trace.emit(1.0, "x", node=1, rssi=-100.5, extra="y")
        assert event.data == {"rssi": -100.5, "extra": "y"}

    def test_capacity_drops_oldest_but_counts_stay_exact(self):
        trace = TraceLog(capacity=3)
        for index in range(10):
            trace.emit(float(index), "k")
        assert len(trace) == 3
        assert trace.count("k") == 10
        assert [e.time for e in trace.events()] == [7.0, 8.0, 9.0]

    def test_listener_sees_every_event(self):
        trace = TraceLog()
        seen = []
        trace.subscribe(seen.append)
        trace.emit(1.0, "x")
        trace.emit(2.0, "y")
        assert [e.kind for e in seen] == ["x", "y"]

    def test_empty_tracelog_is_falsy_but_usable(self):
        # Regression guard: code must never use `trace or TraceLog()`.
        trace = TraceLog()
        assert not trace
        trace.emit(0.0, "x")
        assert trace

    def test_capacity_must_not_be_negative(self):
        with pytest.raises(SimulationError):
            TraceLog(capacity=-1)

    def test_capacity_zero_keeps_nothing_but_counts_and_notifies(self):
        trace = TraceLog(capacity=0)
        seen = []
        trace.subscribe(seen.append)
        event = trace.emit(1.0, "phy.tx", node=3, tx_id=7)
        trace.emit(2.0, "phy.rx", node=4)
        assert [e.kind for e in seen] == ["phy.tx", "phy.rx"] and seen[0] is event
        assert (trace.total_emitted, trace.count("phy.tx"), len(trace)) == (2, 1, 0)
        assert trace.capacity == 0
        with pytest.raises(SimulationError, match="capture_trace"):
            trace.events()
        with pytest.raises(SimulationError, match="capture_trace"):
            trace.events(kind="phy.tx")

    def test_event_is_a_tuple_with_its_own_data(self):
        trace = TraceLog()
        first = trace.emit(1.0, "x", node=1)
        second = trace.emit(2.0, "x")
        assert first == (1.0, "x", 1, {}) and second.node is None
        assert first.data is not second.data

    def test_total_emitted_survives_eviction(self):
        trace = TraceLog(capacity=2)
        for index in range(7):
            trace.emit(float(index), "k")
        assert trace.total_emitted == 7
        assert trace.capacity == 2
        assert len(trace) == 2


class TestSubscriptions:
    def test_subscribe_returns_live_handle(self):
        trace = TraceLog()
        handle = trace.subscribe(lambda event: None)
        assert isinstance(handle, TraceSubscription)
        assert handle.active
        assert trace.subscriber_count == 1

    def test_unsubscribe_via_handle_stops_delivery(self):
        trace = TraceLog()
        seen = []
        handle = trace.subscribe(seen.append)
        trace.emit(1.0, "a")
        handle.unsubscribe()
        trace.emit(2.0, "b")
        assert [event.kind for event in seen] == ["a"]
        assert not handle.active
        assert trace.subscriber_count == 0

    def test_unsubscribe_is_idempotent(self):
        trace = TraceLog()
        handle = trace.subscribe(lambda event: None)
        handle.unsubscribe()
        handle.unsubscribe()  # must not raise or corrupt the listener list
        assert trace.subscriber_count == 0

    def test_unsubscribe_by_callable(self):
        trace = TraceLog()
        seen = []
        trace.subscribe(seen.append)
        assert trace.unsubscribe(seen.append) is True
        assert trace.unsubscribe(seen.append) is False  # already gone
        trace.emit(1.0, "a")
        assert seen == []

    def test_same_callable_twice_gives_independent_subscriptions(self):
        trace = TraceLog()
        seen = []
        first = trace.subscribe(seen.append)
        trace.subscribe(seen.append)
        trace.emit(1.0, "a")
        assert len(seen) == 2  # delivered once per subscription
        first.unsubscribe()
        trace.emit(2.0, "b")
        assert [event.kind for event in seen] == ["a", "a", "b"]

    def test_close_detaches_all_listeners(self):
        trace = TraceLog()
        seen = []
        handle = trace.subscribe(seen.append)
        trace.close()
        assert trace.closed
        assert trace.subscriber_count == 0
        assert not handle.active
        # Emitting after close still records (the log holds no OS
        # resources) but notifies nobody.
        trace.emit(1.0, "a")
        assert seen == []
        assert trace.count("a") == 1

    def test_close_is_idempotent_and_blocks_new_subscribers(self):
        trace = TraceLog()
        trace.close()
        trace.close()
        with pytest.raises(SimulationError):
            trace.subscribe(lambda event: None)

    def test_unsubscribe_after_close_is_safe(self):
        trace = TraceLog()
        handle = trace.subscribe(lambda event: None)
        trace.close()
        handle.unsubscribe()  # detached by close(); must stay a no-op
        assert trace.subscriber_count == 0

    def test_context_manager_closes(self):
        with TraceLog() as trace:
            trace.subscribe(lambda event: None)
        assert trace.closed
        assert trace.subscriber_count == 0
