"""Thread-safe pub/sub fan-out for the push pipeline.

One :class:`StreamHub` hangs off the :class:`MonitorServer`.  The
server's ingest path *publishes* delta events onto per-network topics
(and the fleet topic); HTTP handler threads *subscribe* and pump the
events into SSE responses.

Backpressure
------------

Every subscriber owns a bounded queue (:data:`QUEUE_SIZE` events unless
it asks for another size).  A subscriber that cannot keep up does not
slow ingest down and does not grow memory: the hub drops that
subscriber's **oldest** queued event to admit the new one and counts the
drop (per subscriber and hub-wide, surfaced in the server self-metrics).
A client that observes a gap in event ids knows it lagged and can
re-snapshot via the regular GET routes.

Resume
------

The hub keeps a replay ring of the last :data:`RING_SIZE` events per
topic.  A reconnecting client presents the last event id it saw (SSE
``Last-Event-ID``) and the hub replays every newer event still in the
ring; events older than the ring are gone — again, re-snapshot and
carry on.

Lock order (the PR-7 contract)
------------------------------

The hub is a **leaf**: it never calls the server, a store or a
subscriber-blocking operation while holding its lock.  The server may
publish while holding its own lock (``MonitorServer._lock`` →
``StreamHub._lock`` is the sanctioned order); the reverse direction
does not exist.  Subscriber queues are ``queue.Queue`` objects that
synchronise themselves, so consumers block in ``get(timeout=...)``
without holding any hub or subscription lock.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.monitor.stream.events import StreamEvent

#: Bound on one subscriber's queue (events, not bytes) unless
#: :meth:`StreamHub.subscribe` is given another.
QUEUE_SIZE = 256

#: Bound on one topic's replay ring.
RING_SIZE = 256


class StreamSubscription:
    """One consumer's bounded view of a set of topics.

    Created by :meth:`StreamHub.subscribe`; consumed from exactly one
    thread via :meth:`get`.  The hub side offers events (dropping the
    oldest on overflow); the consumer side blocks in ``queue.Queue``
    — never under a lock.
    """

    def __init__(self, topics: Tuple[str, ...], queue_size: int) -> None:
        if queue_size < 1:
            raise ConfigurationError(f"queue_size must be >= 1, got {queue_size}")
        self.topics = topics
        self.queue_size = queue_size
        self._lock = threading.Lock()
        #: ``queue.Queue`` serialises itself on its own internal mutex;
        #: ``None`` is the close sentinel.
        self._events: "queue.Queue[Optional[StreamEvent]]" = queue.Queue(  # guarded-by: queue.Queue.mutex
            maxsize=queue_size
        )
        self._closed = False  # guarded-by: _lock
        #: Events handed to the consumer.
        self.received = 0  # guarded-by: _lock
        #: Events evicted because the consumer lagged.
        self.dropped = 0  # guarded-by: _lock

    # -- hub side (called with StreamHub._lock held) ---------------------------

    def _wants(self, topic: str) -> bool:
        return topic in self.topics

    def _offer(self, event: Optional[StreamEvent]) -> int:
        """Enqueue ``event``, evicting the oldest on overflow.

        Returns the number of events dropped (0 or 1 per call, in
        practice).  Non-blocking by construction: only ``*_nowait``
        queue operations, so it is safe under the hub lock.
        """
        dropped = 0
        while True:
            try:
                self._events.put_nowait(event)
                break
            except queue.Full:
                try:
                    evicted = self._events.get_nowait()
                except queue.Empty:
                    continue  # raced with the consumer; retry the put
                if evicted is not None:
                    dropped += 1
        if dropped:
            with self._lock:
                self.dropped += dropped
        return dropped

    # -- consumer side ---------------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Optional[StreamEvent]:
        """Next event, or None on timeout or once the subscription closed.

        ``timeout=None`` (the default) blocks until an event or the
        close sentinel arrives — the conventional queue meaning; a
        finite timeout bounds the wait, and :meth:`get_nowait` polls.
        A None return is either timeout or closure — distinguish via
        :attr:`closed`.  The wait happens inside ``queue.Queue`` — no
        hub or subscription lock is held while blocked.
        """
        with self._lock:
            if self._closed:
                return None
        try:
            item = self._events.get(timeout=timeout)
        except queue.Empty:
            return None
        return self._receive(item)

    def get_nowait(self) -> Optional[StreamEvent]:
        """Next already-queued event, or None immediately (polling)."""
        with self._lock:
            if self._closed:
                return None
        try:
            item = self._events.get_nowait()
        except queue.Empty:
            return None
        return self._receive(item)

    def _receive(self, item: Optional[StreamEvent]) -> Optional[StreamEvent]:
        if item is None:  # close sentinel
            with self._lock:
                self._closed = True
            return None
        with self._lock:
            self.received += 1
        return item

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Mark closed and wake a blocked :meth:`get` (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._offer(None)

    def stats(self) -> Dict[str, Any]:
        """Lag/drop accounting for this subscriber."""
        with self._lock:
            received = self.received
            dropped = self.dropped
            closed = self._closed
        return {
            "topics": list(self.topics),
            "queued": self._events.qsize(),
            "queue_size": self.queue_size,
            "received": received,
            "dropped": dropped,
            "closed": closed,
        }


class StreamHub:
    """Publish/subscribe fan-out with bounded queues and a replay ring."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._lock = threading.Lock()
        self._subscribers: List[StreamSubscription] = []  # guarded-by: _lock
        #: Next event id per topic (ids start at 1; 0 = "from the start").
        self._next_ids: Dict[str, int] = {}  # guarded-by: _lock
        self._rings: Dict[str, Deque[StreamEvent]] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self.events_published = 0  # guarded-by: _lock
        self.events_dropped = 0  # guarded-by: _lock
        self.events_replayed = 0  # guarded-by: _lock
        self.resumes = 0  # guarded-by: _lock
        self.subscribers_peak = 0  # guarded-by: _lock

    # -- publishing ------------------------------------------------------------

    def publish(
        self,
        topic: str,
        type: str,  # noqa: A002 - mirrors the event field name
        data: Mapping[str, Any],
        at: Optional[float] = None,
    ) -> Optional[StreamEvent]:
        """Publish one event; returns it (id assigned), or None when closed.

        Everything under the hub lock is O(bookkeeping): id assignment,
        ring append, non-blocking queue offers.  The hub never calls
        back into the server here (lock-order contract).
        """
        stamped_at = self._clock() if at is None else at
        with self._lock:
            if self._closed:
                return None
            event_id = self._next_ids.get(topic, 0) + 1
            self._next_ids[topic] = event_id
            event = StreamEvent(
                topic=topic, event_id=event_id, type=type, at=stamped_at, data=data
            )
            ring = self._rings.get(topic)
            if ring is None:
                ring = deque(maxlen=RING_SIZE)
                self._rings[topic] = ring
            ring.append(event)
            self.events_published += 1
            dropped = 0
            for subscription in self._subscribers:
                if subscription._wants(topic):
                    dropped += subscription._offer(event)
            self.events_dropped += dropped
        return event

    # -- subscriptions ---------------------------------------------------------

    def subscribe(
        self,
        topics: Iterable[str],
        last_event_ids: Optional[Mapping[str, int]] = None,
        queue_size: Optional[int] = None,
    ) -> StreamSubscription:
        """Register a consumer for ``topics``.

        ``last_event_ids`` maps topic -> last event id the consumer saw;
        newer events still in that topic's replay ring are queued before
        any live event, so a reconnect resumes seamlessly (or with a
        visible id gap when the ring already evicted some).
        """
        subscription = StreamSubscription(
            topics=tuple(topics),
            queue_size=queue_size if queue_size is not None else QUEUE_SIZE,
        )
        with self._lock:
            if self._closed:
                subscription._offer(None)
                return subscription
            if last_event_ids:
                resumed = False
                for topic in subscription.topics:
                    last_seen = last_event_ids.get(topic)
                    if last_seen is None:
                        continue
                    resumed = True
                    for event in self._rings.get(topic, ()):
                        if event.event_id > last_seen:
                            subscription._offer(event)
                            self.events_replayed += 1
                if resumed:
                    self.resumes += 1
            self._subscribers.append(subscription)
            if len(self._subscribers) > self.subscribers_peak:
                self.subscribers_peak = len(self._subscribers)
        return subscription

    def unsubscribe(self, subscription: StreamSubscription) -> None:
        """Deregister and close ``subscription`` (idempotent)."""
        with self._lock:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                pass
        subscription.close()

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def last_event_id(self, topic: str) -> int:
        """Highest event id published on ``topic`` (0 before any)."""
        with self._lock:
            return self._next_ids.get(topic, 0)

    def close(self) -> None:
        """Refuse new events and wake every subscriber (idempotent)."""
        with self._lock:
            self._closed = True
            subscribers, self._subscribers = self._subscribers, []
        for subscription in subscribers:
            subscription.close()

    # -- observability ----------------------------------------------------------

    def stats_document(self) -> Dict[str, Any]:
        """Hub counters + per-subscriber lag/drop accounting.

        Subscriber stats are collected *outside* the hub lock — the
        subscriptions lock themselves, mirroring how the server collects
        transport documents.
        """
        with self._lock:
            subscribers = list(self._subscribers)
            document: Dict[str, Any] = {
                "topics": len(self._next_ids),
                "subscribers": len(subscribers),
                "subscribers_peak": self.subscribers_peak,
                "events_published": self.events_published,
                "events_dropped": self.events_dropped,
                "events_replayed": self.events_replayed,
                "resumes": self.resumes,
                "ring_size": RING_SIZE,
            }
        stats = [subscription.stats() for subscription in subscribers]
        document["queue_lag_max"] = max((s["queued"] for s in stats), default=0)
        document["subscriber_stats"] = stats
        return document
