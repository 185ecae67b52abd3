"""Uplink transports between the monitoring client and the server.

Two modes, matching DESIGN.md's T3 ablation:

* :class:`OutOfBandUplink` — the paper's path: the node has a secondary
  interface (WiFi on the ESP32) and POSTs JSON batches to the server over
  the Internet.  Modelled as a lossy, delayed request/response channel
  (:data:`OOB_LATENCY_MEAN_S` one way, jittered by up to
  :data:`OOB_LATENCY_JITTER_S`); a lost request produces no
  acknowledgement, the client sees a failure after
  :data:`OOB_TIMEOUT_S` and retries, so delivery is at-least-once end to
  end.
* :class:`InBandUplink` — telemetry rides the mesh itself as TELEMETRY
  messages addressed to a gateway node, costing LoRa airtime.  The
  :class:`GatewayBridge` attached to the gateway hands completed messages
  to the server.  Delivery is at-most-once: a batch lost in the mesh is
  gone (the client cannot afford end-to-end acks over LoRa), which is
  exactly the fidelity trade-off experiment T3 quantifies.
"""

from __future__ import annotations

import random
import socket
import urllib.error
import urllib.request
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.errors import ConfigurationError
from repro.mesh.node import DeliveredMessage, MeshNode
from repro.mesh.packet import PacketType
from repro.monitor.codec import CODECS, Codec, JsonCodec, resolve_codec
from repro.monitor.ingest import DEFAULT_NETWORK_ID, IngestResult, validate_network_id
from repro.monitor.records import RecordBatch
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # import only for annotations; avoids a mesh<->monitor import cycle
    from repro.mesh.endtoend import ReliableMessenger

ResultCallback = Callable[[bool], None]

#: One-way latency of the simulated out-of-band POST and its response.
OOB_LATENCY_MEAN_S = 0.08
#: Each latency draw is uniform within this much of the mean.
OOB_LATENCY_JITTER_S = 0.04
#: A lost request or response surfaces to the client after this long.
OOB_TIMEOUT_S = 10.0


@dataclass
class UplinkStats:
    """Per-uplink counters."""

    batches_submitted: int = 0
    batches_delivered: int = 0
    batches_lost: int = 0
    bytes_sent: int = 0


class Uplink(ABC):
    """Transport for record batches."""

    def __init__(self) -> None:
        self.stats = UplinkStats()

    @abstractmethod
    def send(self, batch: RecordBatch, on_result: ResultCallback) -> None:
        """Ship ``batch``; invoke ``on_result(ok)`` when the outcome is known
        from the *client's* point of view."""


class OutOfBandUplink(Uplink):
    """Simulated WiFi/HTTP POST of JSON batches to the monitoring server.

    The server object is called directly (``ingest_json``); loss and
    latency are simulated in front of it.  A lost request surfaces to the
    client as a failed result after :data:`OOB_TIMEOUT_S`.
    """

    def __init__(
        self,
        sim: Simulator,
        server: "SupportsIngestJson",
        rng: random.Random,
        loss_probability: float = 0.0,
    ) -> None:
        super().__init__()
        if not (0.0 <= loss_probability <= 1.0):
            raise ConfigurationError(f"loss_probability must be 0..1, got {loss_probability}")
        self._sim = sim
        self._server = server
        self._rng = rng
        self._loss = loss_probability
        # Encoding through the codec keeps each encode one
        # ``JsonCodec.encode`` call, where encode cost is measured.
        self._codec = JsonCodec()

    def wire_size(self, batch: RecordBatch) -> int:
        """Bytes ``batch`` occupies on this uplink's wire (its JSON text)."""
        return len(self._codec.encode(batch))

    def _latency(self) -> float:
        return max(
            OOB_LATENCY_MEAN_S
            + self._rng.uniform(-OOB_LATENCY_JITTER_S, OOB_LATENCY_JITTER_S),
            1e-4,
        )

    def send(self, batch: RecordBatch, on_result: ResultCallback) -> None:
        raw = self._codec.encode(batch)
        self.stats.batches_submitted += 1
        self.stats.bytes_sent += len(raw)
        if self._rng.random() < self._loss:
            # Request lost in transit: the server never sees it.
            self.stats.batches_lost += 1
            self._sim.call_in(OOB_TIMEOUT_S, lambda: on_result(False))
            return

        def deliver() -> None:
            result = self._server.ingest_json(raw)
            self.stats.batches_delivered += 1
            ok = bool(getattr(result, "ok", True))
            if self._rng.random() < self._loss:
                # Response lost: the batch WAS ingested, but the client
                # times out and will retry — the server's per-record
                # dedup absorbs the duplicate.
                self._sim.call_in(OOB_TIMEOUT_S, lambda: on_result(False))
                return
            self._sim.call_in(self._latency(), lambda: on_result(ok))

        self._sim.call_in(self._latency(), deliver)


def _in_band_bytes(batch: RecordBatch) -> bytes:
    """``batch`` in the binary codec, with no network id (``net_len`` 0).

    An in-band batch spends no airtime on its network id: the
    :class:`GatewayBridge` attributes it to the gateway's own network.
    """
    return CODECS["binary"].encode(replace(batch, network_id=DEFAULT_NETWORK_ID))


class InBandUplink(Uplink):
    """Telemetry over the mesh to a gateway node.

    The batch is binary-encoded and sent as a TELEMETRY message; the mesh
    transport segments it across as many LoRa frames as needed.  The
    result callback reports only *local* acceptance (a route existed and
    the frames were queued) — there is no end-to-end acknowledgement.
    """

    def __init__(self, node: MeshNode, gateway_address: int) -> None:
        super().__init__()
        if gateway_address == node.address:
            raise ConfigurationError("in-band uplink gateway cannot be the node itself")
        self._node = node
        self.gateway_address = gateway_address

    def send(self, batch: RecordBatch, on_result: ResultCallback) -> None:
        raw = _in_band_bytes(batch)
        self.stats.batches_submitted += 1
        self.stats.bytes_sent += len(raw)
        msg_id = self._node.send_message(self.gateway_address, raw, ptype=PacketType.TELEMETRY)
        if msg_id is None:
            self.stats.batches_lost += 1
            on_result(False)
            return
        # At-most-once: locally accepted counts as done for the client.
        self.stats.batches_delivered += 1
        on_result(True)


class ReliableInBandUplink(Uplink):
    """In-band telemetry with end-to-end acknowledgement and retry.

    Uses a :class:`~repro.mesh.endtoend.ReliableMessenger` so a batch lost
    in the mesh is retried (at-least-once).  The server's per-record dedup
    absorbs duplicates from retries whose predecessor actually arrived, so
    the store converges to exactly-once.  Costs more airtime than the
    fire-and-forget :class:`InBandUplink` — the T3 bench quantifies it.
    """

    def __init__(self, messenger: "ReliableMessenger", gateway_address: int) -> None:
        super().__init__()
        if gateway_address == messenger.node.address:
            raise ConfigurationError("in-band uplink gateway cannot be the node itself")
        self._messenger = messenger
        self.gateway_address = gateway_address

    def send(self, batch: RecordBatch, on_result: ResultCallback) -> None:
        raw = _in_band_bytes(batch)
        self.stats.batches_submitted += 1
        self.stats.bytes_sent += len(raw)

        def result(ok: bool) -> None:
            if ok:
                self.stats.batches_delivered += 1
            else:
                self.stats.batches_lost += 1
            on_result(ok)

        self._messenger.send(
            self.gateway_address, raw, ptype=PacketType.TELEMETRY, on_result=result
        )


class GatewayBridge:
    """Glue on the gateway node: completed TELEMETRY messages -> server.

    On the gateway itself telemetry short-circuits: if a
    :class:`MonitorClient` on the gateway uses an :class:`InBandUplink`
    pointing at the gateway's own address that is a configuration error;
    give the gateway an :class:`OutOfBandUplink` instead (it is the node
    with Internet connectivity).
    """

    def __init__(
        self,
        gateway: MeshNode,
        server: "SupportsIngestBinary",
        network_id: str = DEFAULT_NETWORK_ID,
    ) -> None:
        try:
            validate_network_id(network_id)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        self.gateway = gateway
        self._server = server
        #: An in-band batch spends no airtime on a network id; the
        #: bridge knows which network its gateway belongs to and
        #: attributes batches server-side.
        self.network_id = network_id
        self.batches_bridged = 0
        self.batches_rejected = 0
        gateway.on_deliver.append(self._delivered)

    def _delivered(self, message: DeliveredMessage) -> None:
        if message.ptype != PacketType.TELEMETRY:
            return
        result = self._server.ingest_binary(message.payload, network_id=self.network_id)
        if getattr(result, "ok", True):
            self.batches_bridged += 1
        else:
            self.batches_rejected += 1


class HttpIngestClient:
    """POSTs record batches to a monitoring server over real HTTP.

    Targets the versioned network-scoped ingest route
    (``POST /api/v1/networks/<id>/ingest``).

    Exposes the same ``ingest_json(raw)`` surface as
    :class:`~repro.monitor.server.MonitorServer`, so it can stand in
    for the direct server object behind an :class:`OutOfBandUplink` or
    any other caller of :class:`SupportsIngestJson`.
    """

    def __init__(
        self,
        base_url: str,
        network_id: str = DEFAULT_NETWORK_ID,
        timeout_s: float = 5.0,
        codec: Union[str, Codec] = "json",
    ) -> None:
        try:
            validate_network_id(network_id)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        if timeout_s <= 0:
            raise ConfigurationError(f"timeout_s must be > 0, got {timeout_s}")
        self.base_url = base_url.rstrip("/")
        self.network_id = network_id
        self._timeout = timeout_s
        #: Default wire encoding for :meth:`send_batch`; negotiated on
        #: the v1 route via ``Content-Type``.
        self.codec = resolve_codec(codec)
        self.posts_ok = 0
        self.posts_failed = 0

    @property
    def v1_url(self) -> str:
        return f"{self.base_url}/api/v1/networks/{self.network_id}/ingest"

    def _post(self, url: str, raw: bytes, content_type: str) -> int:
        request = urllib.request.Request(
            url, data=raw, headers={"Content-Type": content_type}, method="POST"
        )
        with urllib.request.urlopen(request, timeout=self._timeout) as response:
            return int(response.status)

    def ingest_json(self, raw: bytes) -> IngestResult:
        """POST one JSON-encoded batch; the result mirrors the HTTP outcome."""
        return self.ingest_encoded(raw, "json")

    def send_batch(self, batch: RecordBatch) -> IngestResult:
        """Encode ``batch`` with the configured codec and POST it."""
        return self.ingest_encoded(self.codec.encode(batch), self.codec)

    def ingest_encoded(self, raw: bytes, codec: Union[str, Codec]) -> IngestResult:
        """POST wire bytes in ``codec``'s encoding (``Content-Type`` negotiated)."""
        codec = resolve_codec(codec)
        try:
            status = self._post(self.v1_url, raw, codec.content_type)
        except urllib.error.HTTPError as exc:
            self.posts_failed += 1
            return IngestResult(ok=False, error=f"HTTP {exc.code}")
        except (urllib.error.URLError, OSError) as exc:
            self.posts_failed += 1
            return IngestResult(ok=False, error=str(exc))
        self.posts_ok += 1
        return IngestResult(ok=status in (200, 202))


class UdpIngestClient:
    """Fire-and-forget telemetry datagrams to a UDP ingest transport.

    One datagram per batch, binary codec by default, no replies and no
    retries: delivery is at-most-once by design, and the server's
    sequence-gap accounting (not an ack channel) quantifies the loss.
    Suits the monitoring plane's cheapest-possible-uplink corner; use
    :class:`HttpIngestClient` when at-least-once delivery matters.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        codec: Union[str, Codec] = "binary",
    ) -> None:
        if not (0 < port < 65536):
            raise ConfigurationError(f"port must be 1..65535, got {port}")
        self.address = (host, port)
        self.codec = resolve_codec(codec)
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.datagrams_sent = 0
        self.bytes_sent = 0

    def send_batch(self, batch: RecordBatch) -> int:
        """Encode and send one batch; returns the datagram size in bytes."""
        raw = self.codec.encode(batch)
        self._socket.sendto(raw, self.address)
        self.datagrams_sent += 1
        self.bytes_sent += len(raw)
        return len(raw)

    def close(self) -> None:
        self._socket.close()

    def __enter__(self) -> "UdpIngestClient":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


class SupportsIngestJson:  # pragma: no cover - typing helper
    """Structural interface: anything with ``ingest_json(bytes)``."""

    def ingest_json(self, raw: bytes) -> object:
        raise NotImplementedError


class SupportsIngestBinary:  # pragma: no cover - typing helper
    """Structural interface: anything with ``ingest_binary(bytes)``."""

    def ingest_binary(self, raw: bytes, network_id: Optional[str] = None) -> object:
        raise NotImplementedError
