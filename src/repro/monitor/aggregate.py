"""Ingest-time aggregates of what a page view reads.

A page view (:meth:`repro.monitor.dashboard.Dashboard.to_json_dict`)
reports every directed link, every unicast DATA pair, the traffic
composition and, for node health and the low-PDR alert, a delivery
ratio over the trailing window.  Computed from the stored records
(:mod:`repro.monitor.metrics`), each of those walks the whole retained
log, so a view used to cost time in proportion to history.  Each store
instead keeps one :class:`ViewAggregate`: its packet-record writes feed
it, the records it drops (a retention eviction, a replaced SQLite row)
are subtracted again, and a view reads it at the cost of what changed
since the last read.

It is also the one holder of each node's latest state (:class:`NodeState`):
every node that reported anything, its status record of highest seq,
the server time of its last batch and the highest cumulative count of
buffer-overflow drops its client reported.  Both stores answer
``nodes``, ``latest_status``, ``last_seen`` and ``reported_drops`` from
it, and the dashboard's node rows, the fleet tile and both alert paths
read it, so a node is judged from one record on either backend whatever
order its telemetry arrived in.  A status record of lower seq than the
held one (a late or reordered delivery) is stored but does not become
the latest.

What the aggregate holds for the packet records, each exactly what the
:mod:`repro.monitor.metrics` definition computes from the retained
records:

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
  deliveries);
* the last delivery window read (:meth:`ViewAggregate.window_delivery`,
  :meth:`ViewAggregate.window_sources`): per packet, its send and
  delivery events inside the window, and per pair and per source, the
  sent and delivered packets.

The latency samples and the event index are :class:`SortedList`
blocks, so adding or evicting one costs the same at any history length.

What a read costs:

* links and delivery pairs: each keeps its row as the dict the page
  view serves, rebuilt only after a write changed that link or pair,
  and they are kept in key order as they appear and go.  A view costs
  a list of its rows plus one rebuild per link or pair written since
  the last view; it never sorts.
* the delivery window: writes and evictions inside the last window
  update it as they happen, and a read whose window slid forward (the
  health panel's and the low-PDR sweep's trailing half hour) applies
  only the events that left it and the events that entered it, so it
  costs the events since the last read, not the events in the window.
  A window that moved back or jumped past the last one is rebuilt from
  the events inside it.

Float sums are exact (:class:`ExactSum`), so no value depends on the
order in which records arrived or were removed.

Locking: :attr:`ViewAggregate.lock` guards the aggregate, node state
included.  A store takes it around each write (so the aggregate and the
records change together) and a view takes it around its reads (so a
view is one consistent snapshot); neither does any I/O while holding
it.  A node-state read is one dictionary lookup without the lock: a
view already holds it, and a lone read sees one write or the next.  The
server's ingest path calls the store with ``MonitorServer._lock`` held,
so the order is ``MonitorServer._lock`` then the aggregate's lock,
never the reverse.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import (
    TYPE_CHECKING, Any, Dict, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar, Union,
)

from repro.mesh.addressing import BROADCAST
from repro.mesh.packet import PacketType
from repro.monitor.records import Direction, PacketRecord, StatusRecord

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
#: One page-view row, the dict the document serves.  A link row has
#: ``tx, rx, frames, rssi_mean, rssi_min, rssi_max, snr_mean``; a
#: delivery row ``src, dst, sent, delivered, pdr, latency_mean_s,
#: latency_p95_s``.
Row = Dict[str, Any]
#: One composition row: (packet type, OUT frames, OUT bytes, airtime).
CompositionRow = Tuple[int, int, int, float]
#: (src, dst) -> (sent, delivered) packets over a window.
WindowCounts = Dict[Tuple[int, int], Tuple[int, int]]


T = TypeVar("T", bound="SupportsRichComparison")
K = TypeVar("K")


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


class _Entry:
    """A link or a pair, with its page-view row.

    ``row`` is the dict the page view serves, built on the first read
    after a write changed the entry and None until then.  A change
    replaces it, never mutates it: documents already served hold the
    old dict and stay as they were.
    """

    __slots__ = ("row",)

    def __init__(self) -> None:
        self.row: Optional[Row] = None

    def document_row(self) -> Row:
        """The entry's page-view row from its current state."""
        raise NotImplementedError

    def fresh_row(self) -> Row:
        """Rebuild :attr:`row` from the current state; returns it."""
        row = self.row = self.document_row()
        return row


E = TypeVar("E", bound=_Entry)


class _Table(Generic[E]):
    """Links or pairs by (int, int) key, kept in key order for the page view.

    An entry takes its place in the order when it appears and leaves it
    when it goes (a bisection and a list insert or delete), so a read
    never sorts.  New links and pairs keep appearing between the views
    of a growing network, and re-sorting every row whenever one did was
    the largest part of a view's cost after long history.
    """

    __slots__ = ("entries", "_keys", "_order")

    def __init__(self) -> None:
        self.entries: Dict[Tuple[int, int], E] = {}
        self._keys: List[Tuple[int, int]] = []
        self._order: List[E] = []

    def add(self, key: Tuple[int, int], entry: E) -> E:
        """Take in ``entry`` under the new ``key``; returns it."""
        self.entries[key] = entry
        index = bisect.bisect_left(self._keys, key)
        self._keys.insert(index, key)
        self._order.insert(index, entry)
        return entry

    def remove(self, key: Tuple[int, int]) -> None:
        """Drop the entry under ``key``."""
        del self.entries[key]
        index = bisect.bisect_left(self._keys, key)
        del self._keys[index]
        del self._order[index]

    def rows(self) -> List[Row]:
        """Every entry's row in key order, rebuilding those marked stale
        (a row is never empty, so only None is false)."""
        return [entry.row or entry.fresh_row() for entry in self._order]


class _Link(_Entry):
    """One directed link's IN frames with RSSI and SNR."""

    __slots__ = ("tx", "rx", "frames", "rssi_sum", "snr_sum", "rssi_values", "rssi_min", "rssi_max")

    def __init__(self, tx: int, rx: int) -> None:
        super().__init__()
        self.tx = tx
        self.rx = rx
        self.frames = 0
        self.rssi_sum = ExactSum()
        self.snr_sum = ExactSum()
        #: RSSI value -> frames that reported it.
        self.rssi_values: Dict[float, int] = {}
        self.rssi_min = math.inf
        self.rssi_max = -math.inf

    def document_row(self) -> Row:
        frames = self.frames
        return {
            "tx": self.tx,
            "rx": self.rx,
            "frames": frames,
            "rssi_mean": self.rssi_sum.value / frames,
            "rssi_min": self.rssi_min,
            "rssi_max": self.rssi_max,
            "snr_mean": self.snr_sum.value / frames,
        }


class _Pair(_Entry):
    """One unicast (src, dst) pair's DATA deliveries."""

    __slots__ = ("src", "dst", "sent", "delivered", "latencies", "latency_sum")

    def __init__(self, src: int, dst: int) -> None:
        super().__init__()
        self.src = src
        self.dst = dst
        #: Packet id -> timestamps of its first-attempt OUT records at the origin.
        self.sent: Dict[int, List[float]] = {}
        #: Packet id -> timestamps of its IN records at the destination.
        self.delivered: Dict[int, List[float]] = {}
        #: One sample per packet id in both maps.
        self.latencies: SortedList[float] = SortedList()
        self.latency_sum = ExactSum()

    def document_row(self) -> Row:
        sent = len(self.sent)
        delivered = len(self.latencies)
        return {
            "src": self.src,
            "dst": self.dst,
            "sent": sent,
            "delivered": delivered,
            "pdr": delivered / sent if sent else math.nan,
            "latency_mean_s": self.latency_sum.value / delivered if delivered else None,
            "latency_p95_s": (
                nearest_rank(self.latencies, LATENCY_PERCENTILE) if delivered else None
            ),
        }

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


class _Window:
    """The last delivery window read, kept exact as events come and go.

    ``packets`` holds, per (src, dst, packet id), how many of its send
    and delivery events lie in ``[since, until]``; ``pairs`` holds, per
    (src, dst) with a packet sent in the window, (packets sent, packets
    of those also delivered), and ``sources`` the same summed per src.
    """

    __slots__ = ("since", "until", "packets", "pairs", "sources")

    def __init__(self, since: float, until: float) -> None:
        self.since = since
        self.until = until
        self.packets: Dict[Tuple[int, int, int], List[int]] = {}
        self.pairs: WindowCounts = {}
        self.sources: Dict[int, Tuple[int, int]] = {}

    def count(self, kind: int, src: int, dst: int, packet_id: int, sign: int) -> None:
        """Count one send or delivery event in (``sign`` 1) or out (-1)."""
        packets = self.packets
        key = (src, dst, packet_id)
        counts = packets.get(key)
        if counts is None:
            counts = packets[key] = [0, 0]
        sent_before = counts[_SENT] > 0
        delivered_before = sent_before and counts[_DELIVERED] > 0
        counts[kind] += sign
        sent, delivered = counts
        if not sent and not delivered:
            del packets[key]
        sent_after = sent > 0
        delivered_after = sent_after and delivered > 0
        if sent_after != sent_before or delivered_after != delivered_before:
            sent_delta = sent_after - sent_before
            delivered_delta = delivered_after - delivered_before
            _shift(self.pairs, (src, dst), sent_delta, delivered_delta)
            _shift(self.sources, src, sent_delta, delivered_delta)


class NodeState:
    """One node's latest state, as its store's writes left it."""

    __slots__ = ("status", "last_seen", "drops")

    def __init__(self) -> None:
        #: The node's status record of highest seq; None before any.
        self.status: Optional[StatusRecord] = None
        #: Server time of the node's last batch; None before any.
        self.last_seen: Optional[float] = None
        #: The highest cumulative buffer-overflow drop count the node's
        #: client reported: a resent or reordered batch cannot raise it
        #: past what the client counted.
        self.drops = 0


class ViewAggregate:
    """Everything a page view reads, kept exact as records come and go.

    Stores call :meth:`add_records` for each packet-record write,
    :meth:`remove_records` for each record they drop,
    :meth:`add_status_records` and :meth:`note_batch`; views call the
    read methods and read :attr:`nodes`.  Every method takes
    :attr:`lock`, which is reentrant so a store or a view can hold it
    across several calls.
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        #: Every node that reported anything, in the order first heard
        #: of, with its latest state.
        self.nodes: Dict[int, NodeState] = {}  # guarded-by: lock
        self._links: _Table[_Link] = _Table()  # guarded-by: lock
        self._pairs: _Table[_Pair] = _Table()  # guarded-by: lock
        self._types: Dict[int, _Type] = {}  # guarded-by: lock
        #: Source -> (packets sent, packets delivered), over its pairs.
        self._sources: Dict[int, Tuple[int, int]] = {}  # guarded-by: lock
        self._sent = 0  # guarded-by: lock
        self._delivered = 0  # guarded-by: lock
        self._events: SortedList[Event] = SortedList()  # guarded-by: lock
        #: The last delivery window read; None before the first.
        self._window: Optional[_Window] = None  # guarded-by: lock

    # -- writes ----------------------------------------------------------------

    def add_records(self, records: Iterable[PacketRecord]) -> None:
        """Count ``records`` in; their observers become known nodes."""
        self._update(records, 1)

    def remove_records(self, records: Iterable[PacketRecord]) -> None:
        """Count ``records`` out; each must have been added before."""
        self._update(records, -1)

    def add_status_records(self, records: Iterable[StatusRecord]) -> None:
        """Take each record as its node's latest unless that has a higher seq."""
        with self.lock:
            nodes = self.nodes
            for record in records:
                state = nodes.get(record.node)
                if state is None:
                    state = nodes[record.node] = NodeState()
                latest = state.status
                if latest is None or record.seq >= latest.seq:
                    state.status = record

    def note_batch(self, node: int, received_at: float, dropped_records: int) -> None:
        """A batch from ``node``, whose client had dropped ``dropped_records``
        records in all, arrived at server time ``received_at``."""
        with self.lock:
            state = self.nodes.get(node)
            if state is None:
                state = self.nodes[node] = NodeState()
            state.last_seen = received_at
            if dropped_records > state.drops:
                state.drops = dropped_records

    def _update(self, records: Iterable[PacketRecord], sign: int) -> None:
        with self.lock:
            links, pairs, types, events = self._links, self._pairs, self._types, self._events
            nodes, window = self.nodes, self._window
            for (
                node, _seq, ts, direction, src, dst, _next_hop, prev_hop,
                ptype, packet_id, size_bytes, rssi, snr, airtime, attempt,
            ) in records:
                # A removed record's node was added with it, so this
                # registers only on the way in.
                if node not in nodes:
                    nodes[node] = NodeState()
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
                if window is not None and window.since <= ts <= window.until:
                    window.count(kind, src, dst, packet_id, sign)
                if sent_delta or delivered_delta:
                    self._sent += sent_delta
                    self._delivered += delivered_delta
                    _shift(self._sources, src, sent_delta, delivered_delta)

    # -- reads -----------------------------------------------------------------

    def network_pdr(self) -> float:
        """Delivered over sent packets across all unicast DATA pairs."""
        with self.lock:
            return self._delivered / self._sent if self._sent else math.nan

    def source_delivery(self) -> Dict[int, Tuple[int, int]]:
        """Source -> (sent, delivered) over all of its pairs (a copy)."""
        with self.lock:
            return dict(self._sources)

    def links(self) -> List[Row]:
        """One row per directed link, sorted by (tx, rx).

        Each call returns a new list of the links' rows; a row is
        rebuilt only after a write changed its link (see :class:`_Entry`).
        """
        with self.lock:
            return self._links.rows()

    def delivery(self) -> List[Row]:
        """One row per unicast DATA pair, sorted by (src, dst); built as in :meth:`links`."""
        with self.lock:
            return self._pairs.rows()

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
        that sent in the window.  Returns a copy.
        """
        with self.lock:
            return dict(self._slide(since, until).pairs)

    def window_sources(self, since: float, until: float) -> Dict[int, Tuple[int, int]]:
        """Source -> (sent, delivered) summed over its pairs in
        :meth:`window_delivery` of the same window.  Returns a copy."""
        with self.lock:
            return dict(self._slide(since, until).sources)

    def _slide(self, since: float, until: float) -> _Window:
        """The kept window, moved to ``[since, until]``.

        Writes inside the kept window update it as they happen.  A
        window whose edges both moved forward and that still overlaps
        the kept one applies the events that left ``[old since, since)``
        and those that entered ``(old until, until]``; any other (moved
        back, or past the kept one) is rebuilt from the events inside
        it.  The health scores and the low-PDR sweep read the same
        trailing window, so each pays for the events since the last
        read, not for every event in the window.
        """
        with self.lock:
            window = self._window
            events = self._events
            if (
                window is None
                or since < window.since
                or until < window.until
                or since > window.until
            ):
                window = self._window = _Window(since, until)
                leaving: Iterable[Event] = ()
                entering = events.between((since, _BEFORE, 0, 0, 0), (until, _AFTER, 0, 0, 0))
            else:
                old_since, old_until = window.since, window.until
                window.since, window.until = since, until
                leaving = events.between((old_since, _BEFORE, 0, 0, 0), (since, _BEFORE, 0, 0, 0))
                entering = events.between((old_until, _AFTER, 0, 0, 0), (until, _AFTER, 0, 0, 0))
            count = window.count
            for _ts, kind, src, dst, packet_id in leaving:
                count(kind, src, dst, packet_id, -1)
            for _ts, kind, src, dst, packet_id in entering:
                count(kind, src, dst, packet_id, 1)
            return window


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
    links: _Table[_Link], key: Tuple[int, int], rssi: float, snr: float, sign: int
) -> None:
    """Count one IN record's RSSI and SNR in or out of link ``key``."""
    link = links.entries.get(key)
    if link is None:
        link = links.add(key, _Link(*key))
    link.frames += sign
    if not link.frames:
        links.remove(key)
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
    pairs: _Table[_Pair],
    events: SortedList[Event],
    event: Event,
    sign: int,
) -> Tuple[int, int]:
    """Count one send or delivery ``event`` in or out of its pair and the index.

    Returns how the pair's sent and delivered packet counts moved.
    """
    ts, kind, src, dst, packet_id = event
    key = (src, dst)
    pair = pairs.entries.get(key)
    if pair is None:
        pair = pairs.add(key, _Pair(src, dst))
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
        pairs.remove(key)
    return len(pair.sent) - sent_before, (after is not None) - (before is not None)


def _shift(counts: Dict[K, Tuple[int, int]], key: K, sent_delta: int, delivered_delta: int) -> None:
    """Move ``key``'s (sent, delivered); a key with nothing sent leaves ``counts``."""
    sent, delivered = counts.get(key, (0, 0))
    sent += sent_delta
    if sent:
        counts[key] = (sent, delivered + delivered_delta)
    else:
        del counts[key]
