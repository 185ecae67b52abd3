"""The monitoring client that runs on every LoRa node.

Hooks the node's two observation points (every demodulated frame, every
physical transmission), turns them into :class:`PacketRecord` objects,
buffers them, and flushes a :class:`RecordBatch` to the server every
``report_interval_s`` — exactly the client the paper describes.  A
status snapshot rides every ``status_every_n_flushes``-th flush; the
client never captures the monitoring traffic itself (TELEMETRY frames
and their APP_ACKs), so the in-band uplink does not report its own
shipments; and a node's first flush is jittered by up to
:data:`START_JITTER_S` so a network's nodes do not all flush at once.

Reliability model:

* the buffer is bounded; overflow drops the **oldest** records and counts
  them, and every batch carries the client's cumulative count
  (``stats.records_dropped``) so the server can quantify observation
  loss; the server keeps each node's highest, so a resent batch does
  not count its drops twice;
* a batch that fails (uplink loss, no ack before the next interval) keeps
  its records, which are merged into the next batch under a fresh
  ``batch_seq`` but with their original record ``seq`` values — the server
  deduplicates on (node, seq), giving at-least-once delivery over the
  out-of-band uplink;
* a client stopped by a node failure and restarted on recovery loses its
  buffers, as after a power loss, but keeps counting seqs and drops
  where it stopped, so the server never takes its new records for
  replays.

The consumer side of the push pipeline also lives here:
:class:`SseStreamClient` subscribes to a server's SSE stream routes and
iterates decoded :class:`~repro.monitor.stream.events.StreamEvent`
objects, reconnecting with ``Last-Event-ID`` so deltas missed during an
outage are replayed from the hub's ring.
"""

from __future__ import annotations

import itertools
import struct
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Iterator, Optional

from repro.errors import ConfigurationError, DecodeError
from repro.mesh.node import MeshNode
from repro.mesh.packet import Packet, PacketType, crc16_ccitt
from repro.monitor.ingest import DEFAULT_NETWORK_ID, validate_network_id
from repro.monitor.records import (
    Direction,
    NeighborObservation,
    PacketRecord,
    RecordBatch,
    StatusRecord,
)
from repro.monitor.stream.events import StreamEvent, decode_event
from repro.monitor.stream.sse import DEFAULT_RETRY_MS, SseParser
from repro.monitor.uplink import Uplink
from repro.phy.channel import Reception
from repro.sim.engine import RepeatingHandle, Simulator

#: A node's first flush comes up to this long after its first report
#: interval, so the nodes of a network do not all flush at once.
START_JITTER_S = 5.0

#: Frames never captured: the monitoring shipments themselves
#: (TELEMETRY) and their end-to-end acks (APP_ACK).
_META_TRAFFIC = (PacketType.TELEMETRY, PacketType.APP_ACK)


@dataclass(frozen=True)
class MonitorClientConfig:
    """Client tunables.

    Attributes:
        report_interval_s: how often a batch is flushed to the server.
        max_buffer_records: packet-record buffer bound; overflow drops the
            oldest records (counted and reported).
        max_records_per_batch: cap per shipment; a backlog drains over
            several intervals rather than producing one giant batch.
        status_every_n_flushes: attach a node-status snapshot to every
            Nth flush (1 = every flush).
        capture_in: record incoming frames.
        capture_out: record outgoing frames.
        packet_sample_rate: fraction of packets captured (1.0 =
            everything).  Constrained uplinks — the in-band mode in
            particular, where every telemetry byte costs LoRa airtime
            inside a 1 % duty-cycle budget — sample instead of reporting
            the full packet stream.  Sampling is **hash-consistent on the
            packet identity (src, packet_id)**: every node samples the
            same subset of packets, so correlation metrics (PDR, latency,
            route reconstruction) stay unbiased.  Independent per-observer
            sampling would bias observed PDR down by the sampling factor,
            because delivery needs the origin's OUT record *and* the
            destination's IN record of the same packet to survive.
            Status records are never sampled.
        network_id: mesh network this node reports under; batches are
            stamped with it so a multi-tenant server routes them to the
            right shard.  The default keeps single-network deployments
            on the legacy wire format.
    """

    report_interval_s: float = 60.0
    max_buffer_records: int = 2000
    max_records_per_batch: int = 400
    status_every_n_flushes: int = 1
    capture_in: bool = True
    capture_out: bool = True
    packet_sample_rate: float = 1.0
    network_id: str = DEFAULT_NETWORK_ID

    def __post_init__(self) -> None:
        try:
            validate_network_id(self.network_id)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        if self.report_interval_s <= 0:
            raise ConfigurationError(
                f"report_interval_s must be > 0, got {self.report_interval_s}"
            )
        if self.max_buffer_records < 1 or self.max_records_per_batch < 1:
            raise ConfigurationError("buffer and batch sizes must be >= 1")
        if not (0.0 <= self.packet_sample_rate <= 1.0):
            raise ConfigurationError(
                f"packet_sample_rate must be 0..1, got {self.packet_sample_rate}"
            )
        if self.status_every_n_flushes < 1:
            raise ConfigurationError(
                f"status_every_n_flushes must be >= 1, got {self.status_every_n_flushes}"
            )


@dataclass
class ClientStats:
    """Client-side counters, read by the overhead experiments."""

    records_captured: int = 0
    records_dropped: int = 0
    status_snapshots: int = 0
    batches_sent: int = 0
    batches_acked: int = 0
    batches_failed: int = 0
    records_shipped: int = 0


class MonitorClient:
    """Per-node monitoring agent."""

    def __init__(
        self,
        sim: Simulator,
        node: MeshNode,
        uplink: Uplink,
        config: Optional[MonitorClientConfig] = None,
    ) -> None:
        self._sim = sim
        self.node = node
        self.uplink = uplink
        self.config = config or MonitorClientConfig()
        self.stats = ClientStats()
        self._buffer: Deque[PacketRecord] = deque()
        self._pending_status: Deque[StatusRecord] = deque()
        self._packet_seq = itertools.count(0)
        self._status_seq = itertools.count(0)
        self._batch_seq = itertools.count(0)
        self._awaiting_result = False
        self._flush_count = 0
        self._stopped = False
        #: Bumped by every restart: a batch result from before it is stale.
        self._boot = 0
        node.on_packet_in.append(self._packet_in)
        node.on_packet_out.append(self._packet_out)
        self._timer = self._arm_timer()

    def _arm_timer(self) -> RepeatingHandle:
        jitter = self.node._rng.uniform(0.0, START_JITTER_S)
        return self._sim.call_every(
            self.config.report_interval_s,
            self.flush,
            start=self._sim.now + self.config.report_interval_s + jitter,
        )

    def stop(self) -> None:
        """Halt the client (node failure or shutdown)."""
        self._stopped = True
        self._timer.cancel()

    def restart(self) -> None:
        """Run again, as the node's firmware does on reboot.

        The buffers start empty, as after a power loss, and the flush
        timer is re-armed as at start-up (a brownout fails a node without
        stopping its client, so the old timer may still run).  Record and
        batch seqs and the drop count continue where they stopped, as on
        a node that keeps its counters across a reboot, so the server's
        dedup windows accept the new records and its highest drop count
        stays the client's.  A batch still in flight is ignored.
        """
        self._timer.cancel()
        self._buffer.clear()
        self._pending_status.clear()
        self._awaiting_result = False
        self._flush_count = 0
        self._stopped = False
        self._boot += 1
        self._timer = self._arm_timer()

    # -- capture -----------------------------------------------------------------

    def _wants(self, packet: Packet) -> bool:
        if self._stopped or self.node.failed:
            return False
        if packet.ptype in _META_TRAFFIC:
            # Monitoring meta-traffic: recording our own shipments (and
            # their end-to-end acks) into the next batch feeds back.
            return False
        if self.config.packet_sample_rate < 1.0:
            if not self._sampled(packet):
                return False
        return True

    def _sampled(self, packet: Packet) -> bool:
        """Hash-consistent sampling decision for one packet identity."""
        key = struct.pack("!HH", packet.src, packet.packet_id)
        bucket = crc16_ccitt(key) / 65535.0
        return bucket < self.config.packet_sample_rate

    def _packet_in(self, now: float, packet: Packet, reception: Reception) -> None:
        if not self.config.capture_in or not self._wants(packet):
            return
        self._append(
            PacketRecord(
                self.node.address, next(self._packet_seq), now, Direction.IN,
                packet.src, packet.dst, packet.next_hop, packet.prev_hop,
                int(packet.ptype), packet.packet_id, packet.wire_size,
                reception.rssi_dbm, reception.snr_db, None, 1,
            )
        )

    def _packet_out(self, now: float, packet: Packet, airtime: float, attempt: int) -> None:
        if not self.config.capture_out or not self._wants(packet):
            return
        self._append(
            PacketRecord(
                self.node.address, next(self._packet_seq), now, Direction.OUT,
                packet.src, packet.dst, packet.next_hop, packet.prev_hop,
                int(packet.ptype), packet.packet_id, packet.wire_size,
                None, None, airtime, attempt,
            )
        )

    def _append(self, record: PacketRecord) -> None:
        self.stats.records_captured += 1
        self._buffer.append(record)
        while len(self._buffer) > self.config.max_buffer_records:
            self._buffer.popleft()
            self.stats.records_dropped += 1

    def _snapshot_status(self) -> StatusRecord:
        status = self.node.status()
        neighbors = tuple(
            NeighborObservation(
                neighbor.address, neighbor.rssi_ewma_dbm, neighbor.snr_ewma_db,
                neighbor.frames_heard,
            )
            for neighbor in (
                self.node.neighbors.get(addr) for addr in self.node.neighbors.addresses()
            )
            if neighbor is not None
        )
        self.stats.status_snapshots += 1
        return StatusRecord(
            self.node.address,
            next(self._status_seq),
            self._sim.now,
            status["uptime_s"],
            int(status["queue_depth"]),
            int(status["route_count"]),
            int(status["neighbor_count"]),
            status["battery_v"],
            int(status["tx_frames"]),
            status["tx_airtime_s"],
            int(status["retransmissions"]),
            int(status["drops"]),
            status["duty_utilisation"],
            int(status["originated"]),
            int(status["delivered"]),
            int(status["forwarded"]),
            neighbors,
        )

    # -- shipping -----------------------------------------------------------------

    @property
    def backlog(self) -> int:
        """Records buffered and waiting for a successful flush."""
        return len(self._buffer)

    def flush(self) -> None:
        """Build and ship one batch now (normally timer-driven)."""
        if self._stopped or self.node.failed:
            return
        if self._awaiting_result:
            # Previous shipment still in flight; let its result (or the next
            # interval after it resolves) drive the retry.
            return
        self._flush_count += 1
        if (self._flush_count - 1) % self.config.status_every_n_flushes == 0:
            self._pending_status.append(self._snapshot_status())
        if not self._buffer and not self._pending_status:
            return
        take = min(len(self._buffer), self.config.max_records_per_batch)
        packet_records = tuple(self._buffer[index] for index in range(take))
        status_records = tuple(self._pending_status)
        batch = RecordBatch(
            node=self.node.address,
            batch_seq=next(self._batch_seq),
            sent_at=self._sim.now,
            packet_records=packet_records,
            status_records=status_records,
            dropped_records=self.stats.records_dropped,
            network_id=self.config.network_id,
        )
        self._awaiting_result = True
        self.stats.batches_sent += 1
        boot = self._boot

        def on_result(ok: bool) -> None:
            if boot != self._boot:
                return  # sent before a restart; the buffers it names are gone
            self._awaiting_result = False
            if ok:
                self.stats.batches_acked += 1
                self.stats.records_shipped += batch.record_count
                # Remove by seq, not by count: buffer overflow during the
                # flight may already have evicted some of the shipped records.
                if packet_records:
                    last_seq = packet_records[-1].seq
                    while self._buffer and self._buffer[0].seq <= last_seq:
                        self._buffer.popleft()
                if status_records:
                    last_status_seq = status_records[-1].seq
                    while self._pending_status and self._pending_status[0].seq <= last_status_seq:
                        self._pending_status.popleft()
            else:
                self.stats.batches_failed += 1
                # Records stay buffered; the next interval retries them
                # under a new batch_seq with the same record seqs.

        self.uplink.send(batch, on_result)


class SseStreamClient:
    """Iterator of decoded stream events from a server's SSE routes.

    Connects to ``GET /api/v1/stream`` (the fleet topic) or
    ``GET /api/v1/networks/<id>/stream`` and yields
    :class:`~repro.monitor.stream.events.StreamEvent` objects as the
    server pushes them.  On connection loss it reconnects with the
    ``Last-Event-ID`` header set to the last delivered event id, so the
    server's replay ring fills the gap; the server's ``retry:`` hint
    (when seen) overrides the reconnect delay.

    Comment heartbeats and frames that do not decode as
    ``repro.stream/1`` events are skipped silently — forward
    compatibility is the consumer's job per the schema contract.

    Not thread-safe: one client, one iterating thread.
    """

    def __init__(
        self,
        base_url: str,
        network_id: Optional[str] = None,
        timeout_s: float = 30.0,
        limit: Optional[int] = None,
        heartbeat_s: Optional[float] = None,
        max_reconnects: Optional[int] = None,
        last_event_id: Optional[int] = None,
    ) -> None:
        """Args:
            base_url: server root, e.g. ``http://127.0.0.1:8080``.
            network_id: subscribe to this network's topic; None means
                the fleet topic.
            timeout_s: socket read timeout; must exceed the server's
                heartbeat period or quiet topics look like dead peers.
            limit: ask the server to close the stream after this many
                events (the bounded mode tests use); the iterator ends
                rather than reconnecting once it is reached.
            heartbeat_s: override the server's heartbeat period.
            max_reconnects: give up after this many failed reconnect
                attempts (None = keep trying until :meth:`close`).
            last_event_id: resume cursor for the *first* connect —
                replays everything after it from the server's ring.
        """
        if network_id is not None:
            try:
                validate_network_id(network_id)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None
        if timeout_s <= 0:
            raise ConfigurationError(f"timeout_s must be > 0, got {timeout_s}")
        self.base_url = base_url.rstrip("/")
        self.network_id = network_id
        self._timeout = timeout_s
        self._limit = limit
        self._heartbeat_s = heartbeat_s
        self._max_reconnects = max_reconnects
        #: The resume cursor: last event id delivered to the iterator.
        self.last_event_id = last_event_id
        #: Server reconnect-delay hint (ms), once one has been seen.
        self.retry_ms: Optional[int] = None
        self.events_received = 0
        self.reconnects = 0
        self._closed = False

    @property
    def url(self) -> str:
        if self.network_id is None:
            path = "/api/v1/stream"
        else:
            path = f"/api/v1/networks/{self.network_id}/stream"
        params = []
        if self._heartbeat_s is not None:
            params.append(f"heartbeat={self._heartbeat_s}")
        if self._limit is not None:
            params.append(f"limit={self._limit}")
        query = "?" + "&".join(params) if params else ""
        return f"{self.base_url}{path}{query}"

    def close(self) -> None:
        """Stop the iterator at the next frame/reconnect boundary."""
        self._closed = True

    def _connect(self) -> Any:
        headers = {"Accept": "text/event-stream"}
        if self.last_event_id is not None:
            headers["Last-Event-ID"] = str(self.last_event_id)
        request = urllib.request.Request(self.url, headers=headers)
        return urllib.request.urlopen(request, timeout=self._timeout)

    def _reconnect_delay_s(self) -> float:
        return (self.retry_ms if self.retry_ms is not None else DEFAULT_RETRY_MS) / 1000.0

    def events(self) -> Iterator[StreamEvent]:
        """Yield decoded events until closed, limit reached, or given up."""
        failures = 0
        while not self._closed:
            try:
                response = self._connect()
            except (urllib.error.URLError, OSError):
                failures += 1
                if self._max_reconnects is not None and failures > self._max_reconnects:
                    return
                self.reconnects += 1
                time.sleep(self._reconnect_delay_s())
                continue
            failures = 0
            parser = SseParser()
            try:
                with response:
                    for line in response:
                        if self._closed:
                            return
                        message = parser.feed(line)
                        if parser.retry_ms is not None:
                            self.retry_ms = parser.retry_ms
                        if message is None:
                            continue
                        try:
                            event = decode_event(message.data)
                        except DecodeError:
                            continue  # not a repro.stream/1 payload; skip
                        self.last_event_id = event.event_id
                        self.events_received += 1
                        yield event
                        if self._limit is not None and self.events_received >= self._limit:
                            return
            except (urllib.error.URLError, OSError):
                pass  # dropped mid-stream; fall through to reconnect
            if self._closed:
                return
            if self._limit is not None and self.events_received >= self._limit:
                return
            # Clean end-of-stream (server shutdown or proxy cut): resume
            # from the cursor after the server's suggested delay.
            self.reconnects += 1
            time.sleep(self._reconnect_delay_s())

    def __iter__(self) -> Iterator[StreamEvent]:
        return self.events()
