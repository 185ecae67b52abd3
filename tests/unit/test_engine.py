"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_call_at_runs_at_exact_time(self, sim):
        fired = []
        sim.call_at(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_call_in_is_relative(self, sim):
        fired = []
        sim.call_at(1.0, lambda: sim.call_in(0.5, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [1.5]

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.call_at(3.0, lambda: order.append(3))
        sim.call_at(1.0, lambda: order.append(1))
        sim.call_at(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_same_time_events_run_in_priority_then_insertion_order(self, sim):
        order = []
        sim.call_at(1.0, lambda: order.append("b"), priority=1)
        sim.call_at(1.0, lambda: order.append("a"), priority=0)
        sim.call_at(1.0, lambda: order.append("c"), priority=1)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_scheduling_in_the_past_raises(self, sim):
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.call_in(-0.1, lambda: None)

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.call_at(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []


class TestRunControl:
    def test_run_until_does_not_execute_later_events(self, sim):
        fired = []
        sim.call_at(1.0, lambda: fired.append(1))
        sim.call_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_until_advances_clock_even_with_no_events(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_later_events_survive_partial_run(self, sim):
        fired = []
        sim.call_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run(until=20.0)
        assert fired == [10]

    def test_max_events_bounds_execution(self, sim):
        fired = []
        for index in range(10):
            sim.call_at(float(index + 1), lambda i=index: fired.append(i))
        processed = sim.run(max_events=3)
        assert processed == 3
        assert fired == [0, 1, 2]

    def test_stop_halts_the_loop(self, sim):
        fired = []
        sim.call_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.call_at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_run_returns_processed_count(self, sim):
        for index in range(5):
            sim.call_at(float(index), lambda: None)
        assert sim.run() == 5

    def test_run_is_not_reentrant(self, sim):
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.call_at(1.0, reenter)
        sim.run()
        assert len(errors) == 1


class TestRepeating:
    def test_call_every_fires_periodically(self, sim):
        fired = []
        sim.call_every(1.0, lambda: fired.append(sim.now))
        sim.run(until=3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_call_every_with_explicit_start(self, sim):
        fired = []
        sim.call_every(2.0, lambda: fired.append(sim.now), start=0.5)
        sim.run(until=5.0)
        assert fired == [0.5, 2.5, 4.5]

    def test_cancel_stops_future_firings(self, sim):
        fired = []
        handle = sim.call_every(1.0, lambda: fired.append(sim.now))
        sim.call_at(2.5, handle.cancel)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_cancel_from_inside_callback(self, sim):
        fired = []
        holder = {}

        def tick():
            fired.append(sim.now)
            if len(fired) == 2:
                holder["handle"].cancel()

        holder["handle"] = sim.call_every(1.0, tick)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_zero_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_every(0.0, lambda: None)
