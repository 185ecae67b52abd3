"""Event-driven simulation engine.

The :class:`Simulator` owns a priority queue of scheduled callbacks.
Callbacks scheduled for the same instant run in (priority, insertion-order)
order, which makes simulations deterministic for a fixed seed.

The queue is a heap of plain ``(time, priority, seq, event)`` tuples, so
ordering is a C-level tuple comparison; ``seq`` is unique, so a
comparison never reaches the :class:`Event` handle.

Typical usage::

    sim = Simulator()
    sim.call_at(1.0, lambda: print("one second"))
    handle = sim.call_every(0.5, tick, start=0.5)
    sim.run(until=10.0)
    handle.cancel()
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports nothing from sim)
    from repro.obs.spans import SpanProfiler


class Event:
    """Handle for one scheduled callback; :meth:`cancel` stops it firing.

    The queue orders its entries by ``(time, priority, seq)``: lower
    priority values run first when times tie, and ``seq`` preserves
    insertion order as the final tie-break.
    """

    __slots__ = ("callback", "cancelled")

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event from firing (lazy removal from the queue)."""
        self.cancelled = True


class RepeatingHandle:
    """Handle for a periodic schedule created with :meth:`Simulator.call_every`."""

    def __init__(self) -> None:
        self._current: Optional[Event] = None
        self._cancelled = False

    def cancel(self) -> None:
        """Stop future firings; a firing already in progress completes."""
        self._cancelled = True
        if self._current is not None:
            self._current.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Simulator:
    """Deterministic discrete-event simulator.

    Time starts at 0.0 and only moves forward.  All scheduling methods reject
    events in the past, which catches the classic bug of computing a delay
    that went negative.
    """

    def __init__(self, profiler: Optional["SpanProfiler"] = None) -> None:
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._stopped = False
        #: Optional span profiler; when attached *and* enabled, every event
        #: callback is timed under its ``__qualname__``.  The hot loop pays
        #: a single ``is None`` / ``enabled`` check per event otherwise —
        #: benchmarked at < 3 % of baseline by ``bench_o1_trace_overhead``.
        self.profiler = profiler

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def call_at(self, time: float, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` to run at absolute simulation ``time``.

        Returns the :class:`Event`, which can be cancelled.

        Raises:
            SimulationError: if ``time`` is earlier than the current time.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f}, current time is {self._now:.6f}"
            )
        event = Event(callback)
        heapq.heappush(self._queue, (time, priority, next(self._seq), event))
        return event

    def call_in(self, delay: float, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.call_at(self._now + delay, callback, priority=priority)

    def call_every(
        self,
        interval: float,
        callback: Callable[[], None],
        start: Optional[float] = None,
        priority: int = 0,
    ) -> RepeatingHandle:
        """Schedule ``callback`` every ``interval`` seconds.

        Args:
            interval: period between firings; must be positive.
            start: absolute time of the first firing (defaults to
                ``now + interval``).
            priority: tie-break priority for simultaneous events.

        Returns:
            A :class:`RepeatingHandle` that cancels future firings.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be > 0, got {interval}")
        handle = RepeatingHandle()
        first = self._now + interval if start is None else start

        def fire() -> None:
            if handle.cancelled:
                return
            callback()
            if not handle.cancelled:
                handle._current = self.call_at(self._now + interval, fire, priority=priority)

        handle._current = self.call_at(first, fire, priority=priority)
        return handle

    def stop(self) -> None:
        """Stop the run loop after the currently executing event returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have run.

        When ``until`` is given, the clock is advanced to exactly ``until``
        at the end of the run even if the last event fired earlier, so
        rate-style metrics computed from ``sim.now`` use the full window.

        Returns:
            The number of events processed.

        Raises:
            SimulationError: if called re-entrantly from a callback.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        processed = 0
        queue = self._queue
        heappop = heapq.heappop
        # Hoisted once per run(): the disabled-profiler path must cost one
        # local-variable check per event, nothing more.
        profiler = self.profiler
        try:
            while queue and not self._stopped:
                if max_events is not None and processed >= max_events:
                    break
                time, _, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                if until is not None and time > until:
                    break
                heappop(queue)
                self._now = time
                if profiler is not None and profiler.enabled:
                    callback = event.callback
                    with profiler.span(getattr(callback, "__qualname__", "event")):
                        callback()
                else:
                    event.callback()
                processed += 1
        finally:
            self._running = False
        if until is not None and until > self._now:
            self._now = until
        return processed
