"""UDP datagram ingest: the loss-tolerant fast path of the telemetry plane.

One datagram = one encoded :class:`~repro.monitor.records.RecordBatch`
(binary codec by default), in the TinyTelemetry shape: stateless,
self-contained, no replies, no connections.  A lost datagram loses only
its own records — and because every batch carries a ``batch_seq``, the
per-(network, node) gap accounting in
:class:`~repro.monitor.transport.base.TelemetryGapAccountant` turns
that loss into a number the fleet dashboard can show instead of a blind
spot.

Malformed datagrams (truncated header, bad magic, wrong version,
trailing garbage) are **counted and dropped, never raised**: a UDP
socket is an open door, and a crash on garbage would be a one-packet
denial of service.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import DecodeError
from repro.monitor.codec import Codec, resolve_codec
from repro.monitor.server import MonitorServer
from repro.monitor.transport.base import IngestTransport, TelemetryGapAccountant

#: Largest payload a single UDP datagram can carry (IPv4 maximum).
MAX_DATAGRAM_BYTES = 65507


class UdpIngestTransport(IngestTransport):
    """A datagram socket feeding decoded batches into a monitor server."""

    name = "udp"

    def __init__(
        self,
        server: MonitorServer,
        host: str = "127.0.0.1",
        port: int = 0,
        codec: Union[str, Codec] = "binary",
        recv_buffer_bytes: int = 1 << 20,
        accountant: Optional[TelemetryGapAccountant] = None,
    ) -> None:
        """Create (but do not start) the transport.

        Args:
            server: ingestion backend; datagram batches go through the
                same validation and dedup as every other path.
            host/port: bind address; port 0 picks a free port.
            codec: wire encoding of the datagrams (default ``binary``).
            recv_buffer_bytes: requested ``SO_RCVBUF`` — a deep kernel
                buffer is the first line of defence against bursts.
            accountant: sequence-gap accountant to share between
                transports (a private one is created when omitted).
        """
        self._server = server
        self._requested_address = (host, port)
        self._codec = resolve_codec(codec)
        self._recv_buffer_bytes = recv_buffer_bytes
        self.accountant = accountant if accountant is not None else TelemetryGapAccountant()
        self._lock = threading.Lock()
        self._socket: Optional[socket.socket] = None  # guarded-by: _lock
        self._thread: Optional[threading.Thread] = None  # guarded-by: _lock
        self._running = False  # guarded-by: _lock
        self.datagrams_received = 0  # guarded-by: _lock
        self.bytes_received = 0  # guarded-by: _lock
        self.malformed_datagrams = 0  # guarded-by: _lock
        self.batches_submitted = 0  # guarded-by: _lock

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) actually bound (after :meth:`start`)."""
        with self._lock:
            sock = self._socket
        if sock is None:
            return self._requested_address
        bound = sock.getsockname()
        return bound[0], bound[1]

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> None:
        """Bind the socket and start the receive thread (idempotent)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, self._recv_buffer_bytes)
        except OSError:
            pass  # the kernel caps SO_RCVBUF; the default still works
        with self._lock:
            if self._running:
                sock.close()  # racing second start(): first one won
                return
            sock.bind(self._requested_address)
            self._socket = sock
            self._running = True
            self._thread = threading.Thread(
                target=self._serve, args=(sock,), name="udp-ingest", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Close the socket and join the receive thread.

        Safe to call twice (and before :meth:`start`): the first caller
        swaps the socket and thread out under the lock, so a concurrent
        or repeated stop() finds nothing to do.  The join happens
        *outside* the lock — the receiver thread takes it in
        :meth:`handle_datagram`, so joining under it would deadlock
        (RL101).

        Raises:
            RuntimeError: when the receiver thread fails to exit within
                the timeout — a stuck shutdown should fail loudly, not
                leak a thread holding a bound port.
        """
        with self._lock:
            self._running = False
            sock, self._socket = self._socket, None
            thread, self._thread = self._thread, None
        if sock is not None and thread is not None:
            # Closing a socket does NOT reliably interrupt a recvfrom
            # already blocked in the kernel; a zero-byte datagram to
            # ourselves does, and the receive loop re-checks the stop
            # flag before handling it.
            self._wake(sock)
        if thread is not None:
            thread.join(timeout=2.0)
            if thread.is_alive() and sock is not None:
                sock.close()  # second interrupt attempt: recvfrom -> OSError
                thread.join(timeout=3.0)
        if sock is not None:
            sock.close()  # idempotent
        if thread is not None and thread.is_alive():
            raise RuntimeError(
                "udp-ingest receiver thread did not exit within 5s of stop()"
            )

    @staticmethod
    def _wake(sock: socket.socket) -> None:
        """Nudge a receiver blocked in recvfrom on ``sock``."""
        try:
            host, port = sock.getsockname()[:2]
            if host in ("0.0.0.0", "::"):
                host = "127.0.0.1"
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
                probe.sendto(b"", (host, port))
        except OSError:
            pass  # stop() falls back to closing the socket

    def _serve(self, sock: socket.socket) -> None:
        # Lock-free peek at the stop flag: a stale True costs one extra
        # recvfrom that stop()'s socket close interrupts anyway.
        while self._running:  # reprolint: allow[RL100] -- GIL-atomic bool read; stop() also closes the socket, which breaks recvfrom
            try:
                raw, _ = sock.recvfrom(MAX_DATAGRAM_BYTES)
            except OSError:
                break  # stop() closed the socket under us
            if not self._running:  # reprolint: allow[RL100] -- GIL-atomic bool read; the wake datagram from stop() must not be counted as traffic
                break
            self.handle_datagram(raw)

    def handle_datagram(self, raw: bytes) -> bool:
        """Decode and submit one datagram; False when dropped.

        Exposed directly (not only via the socket thread) so tests and
        benchmarks can drive the same accounting without a network round
        trip.
        """
        with self._lock:
            self.datagrams_received += 1
            self.bytes_received += len(raw)
        try:
            # Decode outside the lock: pure CPU work on a private buffer.
            batch = self._codec.decode(raw)
        except DecodeError:
            with self._lock:
                self.malformed_datagrams += 1
            return False
        self.accountant.note(batch.network_id, batch.node, batch.batch_seq)
        # Submit WITHOUT holding the transport lock: the server takes its
        # own lock, and holding ours across the call would establish a
        # udp -> server lock order that deadlocks against the server's
        # server -> udp order in stats collection.
        self._server.submit(batch)
        self._server.note_datagram_batch(batch.network_id)
        with self._lock:
            self.batches_submitted += 1
        return True

    def stats_document(self) -> Dict[str, Any]:
        port = self.port
        with self._lock:
            return {
                "transport": self.name,
                "codec": self._codec.name,
                "port": port,
                "datagrams_received": self.datagrams_received,
                "bytes_received": self.bytes_received,
                "malformed_datagrams": self.malformed_datagrams,
                "batches_submitted": self.batches_submitted,
                "sequence": self.accountant.to_json_dict(),
            }
