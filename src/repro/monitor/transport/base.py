"""Transport plumbing: the plugin interface and sequence-gap accounting.

UDP buys the ingest tier statelessness and throughput at the price of
silent loss.  The paper's monitoring goal makes silent loss
unacceptable — so the datagram path *accounts* for it instead: every
batch carries a client ``batch_seq``, and a per-(network, node)
:class:`SequenceGapTracker` classifies each arrival as in-order, a gap
(one or more batches missing), a late arrival that fills a known gap, a
duplicate, or a client restart.  The aggregated
:class:`TelemetryGapAccountant` is what ``GET /api/v1/server`` surfaces
under ``transports``, so an operator can tell "the mesh is quiet" from
"the monitor is deaf".
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Any, Dict, Set, Tuple


class IngestTransport(ABC):
    """One way for encoded record batches to reach the server."""

    #: Registry/display name (``udp``, ``http``).
    name: str = ""

    @abstractmethod
    def start(self) -> None:
        """Begin accepting traffic (bind sockets, spawn threads/processes)."""

    @abstractmethod
    def stop(self) -> None:
        """Stop accepting traffic and release resources (idempotent)."""

    @abstractmethod
    def stats_document(self) -> Dict[str, Any]:
        """Transport counters for the server self-metrics document."""


#: A batch_seq this far *behind* the stream's highest is a client
#: restart that lost its counters, not a very late arrival.
RESTART_THRESHOLD = 0x8000

#: Bound on remembered missing seqs per stream; older gaps beyond it
#: stay counted as lost even if the datagram eventually limps in.
MAX_TRACKED_MISSING = 1024

#: Bound on the (network, node) streams one accountant tracks.
MAX_STREAMS = 4096

#: Streams listed by name in the accountant's document, worst first.
WORST_STREAMS = 20


class SequenceGapTracker:
    """Batch-sequence accounting for one (network, node) datagram stream.

    Counters:

    * ``received`` — datagrams noted (including duplicates).
    * ``gap_events`` — arrivals that skipped ahead, leaving a hole.
    * ``lost`` — seqs currently believed missing; a late arrival that
      fills a tracked hole decrements this again (and counts as
      ``reordered``).
    * ``duplicates`` — seqs seen twice.
    * ``restarts`` — stream rewinds beyond :data:`RESTART_THRESHOLD`
      (a client reboot that lost its counters); state resets rather than
      charging the whole rewind as loss.
    """

    def __init__(self) -> None:
        # A tracker belongs to exactly one accountant, which serialises
        # every note() under its own lock — per-tracker locks would only
        # add overhead on the datagram fast path.
        self.received = 0  # guarded-by: TelemetryGapAccountant._lock
        self.gap_events = 0  # guarded-by: TelemetryGapAccountant._lock
        self.lost = 0  # guarded-by: TelemetryGapAccountant._lock
        self.duplicates = 0  # guarded-by: TelemetryGapAccountant._lock
        self.reordered = 0  # guarded-by: TelemetryGapAccountant._lock
        self.restarts = 0  # guarded-by: TelemetryGapAccountant._lock
        self._highest: int = -1  # guarded-by: TelemetryGapAccountant._lock
        self._missing: Set[int] = set()  # guarded-by: TelemetryGapAccountant._lock

    def note(self, seq: int) -> str:
        """Account one arrival; returns the classification."""
        self.received += 1
        if self._highest < 0:
            self._highest = seq
            return "first"
        if seq == self._highest + 1:
            self._highest = seq
            return "in_order"
        if seq > self._highest:
            width = seq - self._highest - 1
            self.gap_events += 1
            self.lost += width
            # Only the newest holes can stay tracked, so only they are
            # added: a 32-bit batch_seq can jump by billions.
            self._missing.update(range(max(self._highest + 1, seq - MAX_TRACKED_MISSING), seq))
            if len(self._missing) > MAX_TRACKED_MISSING:
                # Forget the oldest holes; they stay counted as lost.
                for stale in sorted(self._missing)[: len(self._missing) - MAX_TRACKED_MISSING]:
                    self._missing.discard(stale)
            self._highest = seq
            return "gap"
        if seq in self._missing:
            self._missing.discard(seq)
            self.lost -= 1
            self.reordered += 1
            return "late"
        if self._highest - seq > RESTART_THRESHOLD:
            self.restarts += 1
            self._highest = seq
            self._missing.clear()
            return "restart"
        self.duplicates += 1
        return "duplicate"

    def to_json_dict(self) -> Dict[str, int]:
        return {
            "received": self.received,
            "gap_events": self.gap_events,
            "lost": self.lost,
            "duplicates": self.duplicates,
            "reordered": self.reordered,
            "restarts": self.restarts,
        }


class TelemetryGapAccountant:
    """Gap trackers for every (network, node) stream a transport sees.

    Bounded like the network registry: beyond :data:`MAX_STREAMS` the
    least-recently-active stream's tracker is forgotten, so a storm of
    forged network ids cannot grow memory without bound.
    """

    def __init__(self) -> None:
        # Reentrant: note() -> tracker() nests.  The transport's
        # receiver thread mutates the LRU dict and the trackers'
        # counters while stats readers render them.
        self._lock = threading.RLock()
        self._trackers: "OrderedDict[Tuple[str, int], SequenceGapTracker]" = OrderedDict()  # guarded-by: _lock
        self.evicted_streams = 0  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._trackers)

    def tracker(self, network_id: str, node: int) -> SequenceGapTracker:
        """The (lazily created) tracker for one stream."""
        with self._lock:
            key = (network_id, node)
            tracker = self._trackers.get(key)
            if tracker is not None:
                self._trackers.move_to_end(key)
                return tracker
            while len(self._trackers) >= MAX_STREAMS:
                self._trackers.popitem(last=False)
                self.evicted_streams += 1
            tracker = SequenceGapTracker()
            self._trackers[key] = tracker
            return tracker

    def note(self, network_id: str, node: int, seq: int) -> str:
        """Account one batch arrival on one stream.

        The whole lookup + classification runs under the accountant
        lock: tracker state transitions (gap bookkeeping, restart
        resets) are multi-step and must not interleave.
        """
        with self._lock:
            return self.tracker(network_id, node).note(seq)

    def total(self, counter: str) -> int:
        """Sum of one counter over every stream."""
        with self._lock:
            return sum(getattr(tracker, counter) for tracker in self._trackers.values())

    def to_json_dict(self) -> Dict[str, Any]:
        """Aggregate totals plus the :data:`WORST_STREAMS` worst
        (highest-loss) streams."""
        with self._lock:
            worst = sorted(
                self._trackers.items(),
                key=lambda item: (item[1].lost, item[1].duplicates),
                reverse=True,
            )[:WORST_STREAMS]
            return {
                "streams": len(self._trackers),
                "evicted_streams": self.evicted_streams,
                "received": self.total("received"),
                "gap_events": self.total("gap_events"),
                "lost": self.total("lost"),
                "duplicates": self.total("duplicates"),
                "reordered": self.total("reordered"),
                "restarts": self.total("restarts"),
                "worst_streams": {
                    f"{network_id}/{node}": tracker.to_json_dict()
                    for (network_id, node), tracker in worst
                    if tracker.lost or tracker.duplicates or tracker.restarts
                },
            }
