"""Structured trace log for simulations.

The trace is the simulator-side ground truth: the mesh stack and PHY emit
events into it, and the analysis layer compares what the monitoring system
*observed* against what the trace says *happened*.  The observability
layer (:mod:`repro.obs`) consumes the same stream live through
subscriptions to reconstruct per-packet lifecycles.

Capacity handling is O(1) per event: the backing store is a
``collections.deque(maxlen=capacity)``, so hitting the bound evicts the
single oldest event instead of the old ``del events[:overflow]`` list
compaction, which was O(n) on *every* emit once at capacity (~3 orders of
magnitude slower at the default 500k-event bound — see
``docs/OBSERVABILITY.md`` for the micro-bench).  Running counters stay
exact regardless of eviction.  A log of capacity 0 keeps no event at all
on the same path — listeners and counters still see every one — which is
how a scenario runs without ``capture_trace``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, NamedTuple, Optional, Union

from repro.errors import SimulationError


class TraceEvent(NamedTuple):
    """One ground-truth event, built positionally at tuple cost.

    Attributes:
        time: simulation time in seconds.
        kind: event category, e.g. ``"phy.tx"``, ``"phy.rx"``,
            ``"phy.collision"``, ``"mesh.deliver"``, ``"node.fail"``.
        node: address of the node the event concerns (or ``None`` for
            network-wide events).
        data: free-form payload with event-specific fields (each event
            owns its dict; there is no shared default).
    """

    time: float
    kind: str
    node: Optional[int]
    data: Dict[str, Any]


TraceListener = Callable[[TraceEvent], None]


class TraceSubscription:
    """Handle for one registered listener.

    Returned by :meth:`TraceLog.subscribe`; call :meth:`unsubscribe` (or
    :meth:`TraceLog.unsubscribe` with either the handle or the original
    callable) to stop receiving events.  Unsubscribing is idempotent.
    """

    __slots__ = ("listener", "_log", "_active")

    def __init__(self, log: "TraceLog", listener: TraceListener) -> None:
        self.listener = listener
        self._log = log
        self._active = True

    @property
    def active(self) -> bool:
        """Whether this subscription still receives events."""
        return self._active

    def unsubscribe(self) -> None:
        """Detach the listener (safe to call more than once)."""
        if self._active:
            self._active = False
            self._log._remove(self)


class TraceLog:
    """Append-only event log with filtering, counting and subscriptions."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        """Create a trace log.

        Args:
            capacity: optional bound on retained events; when exceeded the
                oldest event is dropped in O(1) (the running counters keep
                exact totals regardless).  ``0`` retains nothing:
                :meth:`events` then raises.
        """
        if capacity is not None and capacity < 0:
            raise SimulationError(f"trace capacity must be >= 0, got {capacity}")
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._capacity = capacity
        self._counts: Dict[str, int] = {}
        self._emitted = 0
        self._subscriptions: List[TraceSubscription] = []
        self._closed = False

    def emit(self, time: float, kind: str, node: Optional[int] = None, **data: Any) -> TraceEvent:
        """Record an event and notify listeners."""
        event = TraceEvent(time, kind, node, data)
        self._events.append(event)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self._emitted += 1
        for subscription in self._subscriptions:
            subscription.listener(event)
        return event

    # -- listener lifecycle ---------------------------------------------------

    def subscribe(self, listener: TraceListener) -> TraceSubscription:
        """Register a callback invoked synchronously for every new event.

        Returns a :class:`TraceSubscription` handle; keep it to detach the
        listener later.  Subscribing the same callable twice yields two
        independent subscriptions.

        Raises:
            SimulationError: when the log has been closed — a closed log
                must not grow new listeners (the RL006 lifecycle story).
        """
        if self._closed:
            raise SimulationError("cannot subscribe to a closed TraceLog")
        subscription = TraceSubscription(self, listener)
        self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, target: Union[TraceSubscription, TraceListener]) -> bool:
        """Detach a listener by handle or by the original callable.

        When a callable was subscribed more than once, the first matching
        subscription is removed.  Returns True when something was detached.
        """
        if isinstance(target, TraceSubscription):
            was_active = target.active
            target.unsubscribe()
            return was_active
        for subscription in self._subscriptions:
            if subscription.listener == target:
                subscription.unsubscribe()
                return True
        return False

    def _remove(self, subscription: TraceSubscription) -> None:
        try:
            self._subscriptions.remove(subscription)
        except ValueError:  # already detached (e.g. via close())
            pass

    def close(self) -> None:
        """End the listener lifecycle: detach all subscriptions (idempotent).

        Events already recorded stay readable and :meth:`emit` keeps
        working (the log itself holds no OS resources); only listeners are
        affected, so a closed-and-reused log cannot leak callbacks into a
        previous consumer.
        """
        if self._closed:
            return
        self._closed = True
        for subscription in self._subscriptions:
            subscription._active = False
        self._subscriptions.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def subscriber_count(self) -> int:
        """Number of currently attached listeners."""
        return len(self._subscriptions)

    def __enter__(self) -> "TraceLog":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- queries --------------------------------------------------------------

    def count(self, kind: str) -> int:
        """Exact number of events of ``kind`` emitted so far."""
        return self._counts.get(kind, 0)

    @property
    def total_emitted(self) -> int:
        """Exact number of events ever emitted (eviction-independent)."""
        return self._emitted

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    def events(self, kind: Optional[str] = None, node: Optional[int] = None) -> Iterator[TraceEvent]:
        """Iterate retained events, optionally filtered by kind and/or node.

        Raises:
            SimulationError: when the log has capacity 0 and so keeps no
                events (a scenario run without ``capture_trace``).
        """
        if self._capacity == 0:
            raise SimulationError(
                "this TraceLog keeps no events (capacity 0): run the scenario "
                "with capture_trace=True to keep them, or read count()/total_emitted"
            )
        return (
            event
            for event in self._events
            if (kind is None or event.kind == kind) and (node is None or event.node == node)
        )

    def __len__(self) -> int:
        return len(self._events)
