"""Ingest-time aggregates of what a page view reads.

A page view (:meth:`repro.monitor.dashboard.Dashboard.to_json_dict`)
reports every directed link, every unicast DATA pair, the traffic
composition and, for node health and the low-PDR alert, a delivery
ratio over the trailing window.  Computed from the stored records
(:mod:`repro.monitor.metrics`), each of those walks the whole retained
log, so a view used to cost time in proportion to history.  Each store
instead keeps one :class:`ViewAggregate`: its packet-record writes feed
it, the records it drops (a retention eviction, a replaced SQLite row)
are subtracted again, and a view reads it in time proportional to its
rows.

What the aggregate holds, each exactly what the :mod:`repro.monitor.metrics`
definition computes from the retained records:

* per directed link (``prev_hop -> observer`` over IN records that carry
  RSSI and SNR): frames, exact RSSI and SNR sums, and the RSSI values as
  a multiset, so the minimum and maximum survive removals;
* per unicast DATA pair: for each packet id, the timestamps of its
  first-attempt OUT records at the origin and of its IN records at the
  destination; the latency samples (one per packet id seen at both
  ends: earliest IN minus earliest OUT), kept sorted for the p95, and
  their exact sum;
* per packet type: OUT frames, bytes and the exact airtime sum;
* a timestamp-sorted index of DATA delivery events (sends and
  deliveries) that windowed queries bisect, so a window costs the
  events inside it and its edges are exact.

The latency samples and the event index are :class:`SortedList`
blocks, so adding or evicting one costs the same at any history length.

Float sums are exact (:class:`ExactSum`), so no value depends on the
order in which records arrived or were removed.

Locking: :attr:`ViewAggregate.lock` guards the aggregate.  A store takes
it around each write (so the aggregate and the records change together)
and a view takes it around its reads (so a view is one consistent
snapshot); neither does any I/O while holding it.  The server's ingest
path calls the store with ``MonitorServer._lock`` held, so the order is
``MonitorServer._lock`` then the aggregate's lock, never the reverse.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import (
    TYPE_CHECKING, Dict, Generic, Iterable, Iterator, List, Optional, Set, Tuple, TypeVar, Union,
)

from repro.mesh.addressing import BROADCAST
from repro.mesh.packet import PacketType
from repro.monitor.records import Direction, PacketRecord

if TYPE_CHECKING:
    from _typeshed import SupportsRichComparison

_DATA = int(PacketType.DATA)
_TWO53 = float(1 << 53)

#: Event kinds of the delivery index.  Both sort between ``_BEFORE`` and
#: ``_AFTER``, so ``(ts, _BEFORE, ...)`` and ``(ts, _AFTER, ...)`` bound
#: every event at ``ts`` from below and from above.
_BEFORE = -1
_SENT = 0
_DELIVERED = 1
_AFTER = 2

#: The delivery panel's latency percentile.
LATENCY_PERCENTILE = 95.0

#: One delivery event: (timestamp, kind, src, dst, packet id).
Event = Tuple[float, int, int, int, int]
#: One link row: (tx, rx, frames, rssi mean, rssi min, rssi max, snr mean).
LinkRow = Tuple[int, int, int, float, float, float, float]
#: One delivery row: (src, dst, sent, delivered, pdr, latency mean, latency p95).
DeliveryRow = Tuple[int, int, int, int, float, Optional[float], Optional[float]]
#: One composition row: (packet type, OUT frames, OUT bytes, airtime).
CompositionRow = Tuple[int, int, int, float]
#: (src, dst) -> (sent, delivered) packets over a window.
WindowCounts = Dict[Tuple[int, int], Tuple[int, int]]


T = TypeVar("T", bound="SupportsRichComparison")


class SortedList(Generic[T]):
    """A sorted multiset held as sorted blocks of at most ``2 * LOAD`` items.

    One flat sorted list pays a memmove of every later item for each
    insertion or removal, and retention evicts the oldest events, near
    the front: O(retained events) per evicted record.  Here an insertion
    or a removal costs a bisection of the block maxima plus O(LOAD)
    inside one block.
    """

    LOAD = 512

    __slots__ = ("_blocks", "_maxes", "_len")

    def __init__(self) -> None:
        self._blocks: List[List[T]] = []
        #: The last (largest) item of each block.
        self._maxes: List[T] = []
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[T]:
        for block in self._blocks:
            yield from block

    def __getitem__(self, rank: int) -> T:
        """The item of 0-based ``rank``."""
        for block in self._blocks:
            if rank < len(block):
                return block[rank]
            rank -= len(block)
        raise IndexError(rank)

    def add(self, item: T) -> None:
        """Insert ``item``."""
        blocks, maxes = self._blocks, self._maxes
        self._len += 1
        if not maxes:
            blocks.append([item])
            maxes.append(item)
            return
        index = bisect.bisect_left(maxes, item)
        if index == len(maxes):
            index -= 1
            block = blocks[index]
            block.append(item)
            maxes[index] = item
        else:
            block = blocks[index]
            bisect.insort(block, item)
        if len(block) > 2 * self.LOAD:
            blocks.insert(index + 1, block[self.LOAD:])
            del block[self.LOAD:]
            maxes.insert(index, block[-1])

    def remove(self, item: T) -> None:
        """Remove one occurrence of ``item``; ValueError when there is none."""
        maxes = self._maxes
        index = bisect.bisect_left(maxes, item)
        if index < len(maxes):
            block = self._blocks[index]
            position = bisect.bisect_left(block, item)
            if block[position] == item:
                del block[position]
                self._len -= 1
                if not block:
                    del self._blocks[index]
                    del maxes[index]
                elif position == len(block):
                    maxes[index] = block[-1]
                return
        raise ValueError(f"{item!r} is not in the list")

    def between(self, low: T, high: T) -> Iterator[T]:
        """The items ``x`` with ``low <= x < high``, in order."""
        blocks = self._blocks
        index = bisect.bisect_left(self._maxes, low)
        start = bisect.bisect_left(blocks[index], low) if index < len(blocks) else 0
        while index < len(blocks):
            block = blocks[index]
            end = bisect.bisect_left(block, high)
            yield from block[start:end]
            if end < len(block):
                return
            index += 1
            start = 0


def nearest_rank(ordered: Union[List[float], SortedList[float]], q: float) -> float:
    """The q-th percentile (0..100) of sorted ``ordered`` by nearest rank."""
    if not ordered:
        return math.nan
    rank = max(int(math.ceil(q / 100.0 * len(ordered))) - 1, 0)
    return ordered[rank]


class ExactSum:
    """A sum of floats that stays exact under additions and removals.

    The exact sum is held as ``numerator / 2**shift`` (a float is an
    integer mantissa times a power of two, so the sum is a dyadic
    rational); :attr:`value` rounds it once, which makes it equal to
    :func:`math.fsum` of the values added and not removed, in any order.
    """

    __slots__ = ("_numerator", "_shift")

    def __init__(self) -> None:
        self._numerator = 0
        self._shift = 0

    def add(self, value: float, count: int = 1) -> None:
        """Add ``value`` ``count`` times (a negative count removes it)."""
        mantissa, exponent = math.frexp(value)
        shift = 53 - exponent
        if shift > self._shift:
            self._numerator <<= shift - self._shift
            self._shift = shift
        self._numerator += count * (int(mantissa * _TWO53) << (self._shift - shift))

    def remove(self, value: float) -> None:
        """Remove one earlier addition of ``value``."""
        self.add(value, -1)

    @property
    def value(self) -> float:
        """The exact sum, correctly rounded."""
        return self._numerator / (1 << self._shift)


class _Link:
    """One directed link's IN frames with RSSI and SNR."""

    __slots__ = ("frames", "rssi_sum", "snr_sum", "rssi_values", "rssi_min", "rssi_max", "row")

    def __init__(self) -> None:
        self.frames = 0
        self.rssi_sum = ExactSum()
        self.snr_sum = ExactSum()
        #: RSSI value -> frames that reported it.
        self.rssi_values: Dict[float, int] = {}
        self.rssi_min = math.inf
        self.rssi_max = -math.inf
        #: The link's row as last read; None after any change.
        self.row: Optional[LinkRow] = None


class _Pair:
    """One unicast (src, dst) pair's DATA deliveries."""

    __slots__ = ("sent", "delivered", "latencies", "latency_sum", "row")

    def __init__(self) -> None:
        #: Packet id -> timestamps of its first-attempt OUT records at the origin.
        self.sent: Dict[int, List[float]] = {}
        #: Packet id -> timestamps of its IN records at the destination.
        self.delivered: Dict[int, List[float]] = {}
        #: One sample per packet id in both maps.
        self.latencies: SortedList[float] = SortedList()
        self.latency_sum = ExactSum()
        #: The pair's row as last read; None after any change.
        self.row: Optional[DeliveryRow] = None

    def sample(self, packet_id: int) -> Optional[float]:
        """Earliest delivery minus earliest send, None unless both exist."""
        sent = self.sent.get(packet_id)
        delivered = self.delivered.get(packet_id)
        if sent is None or delivered is None:
            return None
        return min(delivered) - min(sent)


class _Type:
    """One packet type's OUT records."""

    __slots__ = ("frames", "bytes", "airtime")

    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0
        self.airtime = ExactSum()


class ViewAggregate:
    """Everything a page view reads, kept exact as records come and go.

    Stores call :meth:`add_records` for each write and
    :meth:`remove_records` for each record they drop; views call the
    read methods.  Every method takes :attr:`lock`, which is reentrant
    so a store or a view can hold it across several calls.
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._links: Dict[Tuple[int, int], _Link] = {}  # guarded-by: lock
        self._pairs: Dict[Tuple[int, int], _Pair] = {}  # guarded-by: lock
        self._types: Dict[int, _Type] = {}  # guarded-by: lock
        #: Source -> (packets sent, packets delivered), over its pairs.
        self._sources: Dict[int, Tuple[int, int]] = {}  # guarded-by: lock
        self._sent = 0  # guarded-by: lock
        self._delivered = 0  # guarded-by: lock
        self._events: SortedList[Event] = SortedList()  # guarded-by: lock
        #: Bumped by every write; keys the window memo.
        self._version = 0  # guarded-by: lock
        #: The last window answer: ((since, until, version), counts).
        self._window: Optional[Tuple[tuple, WindowCounts]] = None  # guarded-by: lock

    # -- writes ----------------------------------------------------------------

    def add_records(self, records: Iterable[PacketRecord]) -> None:
        """Count ``records`` in."""
        self._update(records, 1)

    def remove_records(self, records: Iterable[PacketRecord]) -> None:
        """Count ``records`` out; each must have been added before."""
        self._update(records, -1)

    def _update(self, records: Iterable[PacketRecord], sign: int) -> None:
        with self.lock:
            self._version += 1
            links, pairs, types, events = self._links, self._pairs, self._types, self._events
            for (
                node, _seq, ts, direction, src, dst, _next_hop, prev_hop,
                ptype, packet_id, size_bytes, rssi, snr, airtime, attempt,
            ) in records:
                if direction is Direction.OUT:
                    _count_type(types, ptype, size_bytes, airtime, sign)
                    if ptype != _DATA or node != src or attempt != 1 or dst == BROADCAST:
                        continue
                    kind = _SENT
                else:
                    if rssi is not None and snr is not None:
                        _count_link(links, (prev_hop, node), rssi, snr, sign)
                    if ptype != _DATA or node != dst or dst == BROADCAST:
                        continue
                    kind = _DELIVERED
                sent_delta, delivered_delta = _count_event(
                    pairs, events, (ts, kind, src, dst, packet_id), sign
                )
                if sent_delta or delivered_delta:
                    self._sent += sent_delta
                    self._delivered += delivered_delta
                    sent, delivered = self._sources.get(src, (0, 0))
                    counts = (sent + sent_delta, delivered + delivered_delta)
                    if counts == (0, 0):
                        del self._sources[src]
                    else:
                        self._sources[src] = counts

    # -- reads -----------------------------------------------------------------

    def network_pdr(self) -> float:
        """Delivered over sent packets across all unicast DATA pairs."""
        with self.lock:
            return self._delivered / self._sent if self._sent else math.nan

    def source_delivery(self) -> Dict[int, Tuple[int, int]]:
        """Source -> (sent, delivered) over all of its pairs (a copy)."""
        with self.lock:
            return dict(self._sources)

    def links(self) -> List[LinkRow]:
        """One row per directed link, sorted by (tx, rx).

        Rows of links no write touched since the last read are reused:
        between two views ingest changes few of them, and recomputing
        every row (two exact-sum roundings per link, a rank lookup per
        pair in :meth:`delivery`) made a ``fleet_ingest`` pass 8 % slower.
        """
        rows: List[LinkRow] = []
        with self.lock:
            for (tx, rx), link in sorted(self._links.items()):
                row = link.row
                if row is None:
                    row = link.row = (
                        tx, rx, link.frames,
                        link.rssi_sum.value / link.frames,
                        link.rssi_min, link.rssi_max,
                        link.snr_sum.value / link.frames,
                    )
                rows.append(row)
        return rows

    def delivery(self) -> List[DeliveryRow]:
        """One row per unicast DATA pair, sorted by (src, dst); cached as in :meth:`links`."""
        rows: List[DeliveryRow] = []
        with self.lock:
            for (src, dst), pair in sorted(self._pairs.items()):
                row = pair.row
                if row is None:
                    sent = len(pair.sent)
                    delivered = len(pair.latencies)
                    row = pair.row = (
                        src, dst, sent, delivered,
                        delivered / sent if sent else math.nan,
                        pair.latency_sum.value / delivered if delivered else None,
                        nearest_rank(pair.latencies, LATENCY_PERCENTILE) if delivered else None,
                    )
                rows.append(row)
        return rows

    def composition(self) -> List[CompositionRow]:
        """One row per transmitted packet type, sorted by type."""
        with self.lock:
            return [
                (ptype, entry.frames, entry.bytes, entry.airtime.value)
                for ptype, entry in sorted(self._types.items())
            ]

    def window_delivery(self, since: float, until: float) -> WindowCounts:
        """(src, dst) -> (sent, delivered) over events with ``since <= ts <= until``.

        A packet counts as sent when its origin's first attempt falls in
        the window, and as delivered when it was also received by its
        destination inside the window — the ``sent``/``delivered`` of
        ``metrics.pdr_matrix`` with ``since``/``until``, for every pair
        that sent in the window.  Costs the events inside the window;
        the answer is memoised until the next write, so the health
        scores and the low-PDR rule of one view share it.  Treat it as
        read-only.
        """
        with self.lock:
            memo_key = (since, until, self._version)
            if self._window is not None and self._window[0] == memo_key:
                return self._window[1]
            sent: Set[Tuple[int, int, int]] = set()
            delivered: Set[Tuple[int, int, int]] = set()
            window = self._events.between((since, _BEFORE, 0, 0, 0), (until, _AFTER, 0, 0, 0))
            for _ts, kind, src, dst, packet_id in window:
                (sent if kind == _SENT else delivered).add((src, dst, packet_id))
            counts: WindowCounts = {}
            for src, dst, packet_id in sent:
                pair_sent, pair_delivered = counts.get((src, dst), (0, 0))
                counts[(src, dst)] = (
                    pair_sent + 1,
                    pair_delivered + ((src, dst, packet_id) in delivered),
                )
            self._window = (memo_key, counts)
            return counts


def _count_type(
    types: Dict[int, _Type], ptype: int, size_bytes: int, airtime: Optional[float], sign: int
) -> None:
    """Count one OUT record in (``sign`` 1) or out (-1) of its packet type."""
    entry = types.get(ptype)
    if entry is None:
        entry = types[ptype] = _Type()
    entry.frames += sign
    if not entry.frames:
        del types[ptype]
        return
    entry.bytes += sign * size_bytes
    entry.airtime.add(airtime or 0.0, sign)


def _count_link(
    links: Dict[Tuple[int, int], _Link], key: Tuple[int, int], rssi: float, snr: float, sign: int
) -> None:
    """Count one IN record's RSSI and SNR in or out of link ``key``."""
    link = links.get(key)
    if link is None:
        link = links[key] = _Link()
    link.frames += sign
    if not link.frames:
        del links[key]
        return
    link.row = None
    link.rssi_sum.add(rssi, sign)
    link.snr_sum.add(snr, sign)
    values = link.rssi_values
    count = values.get(rssi, 0) + sign
    if count:
        values[rssi] = count
    else:
        del values[rssi]
    if sign > 0:
        if rssi < link.rssi_min:
            link.rssi_min = rssi
        if rssi > link.rssi_max:
            link.rssi_max = rssi
    elif not count:
        if rssi == link.rssi_min:
            link.rssi_min = min(values)
        if rssi == link.rssi_max:
            link.rssi_max = max(values)


def _count_event(
    pairs: Dict[Tuple[int, int], _Pair],
    events: SortedList[Event],
    event: Event,
    sign: int,
) -> Tuple[int, int]:
    """Count one send or delivery ``event`` in or out of its pair and the index.

    Returns how the pair's sent and delivered packet counts moved.
    """
    ts, kind, src, dst, packet_id = event
    key = (src, dst)
    pair = pairs.get(key)
    if pair is None:
        pair = pairs[key] = _Pair()
    pair.row = None
    side = pair.sent if kind == _SENT else pair.delivered
    sent_before = len(pair.sent)
    before = pair.sample(packet_id)
    if sign > 0:
        side.setdefault(packet_id, []).append(ts)
        events.add(event)
    else:
        times = side[packet_id]
        times.remove(ts)
        if not times:
            del side[packet_id]
        events.remove(event)
    after = pair.sample(packet_id)
    if before != after:
        if before is not None:
            pair.latencies.remove(before)
            pair.latency_sum.remove(before)
        if after is not None:
            pair.latencies.add(after)
            pair.latency_sum.add(after)
    if not pair.sent and not pair.delivered:
        del pairs[key]
    return len(pair.sent) - sent_before, (after is not None) - (before is not None)
