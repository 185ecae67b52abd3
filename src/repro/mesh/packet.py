"""Byte-level mesh frame codec.

Every frame on the air uses the same 13-byte header followed by a payload
and a CRC-16 trailer::

    offset  size  field
    0       2     dst        final destination (0xFFFF = broadcast)
    2       2     src        origin address
    4       2     next_hop   link-layer recipient (0xFFFF = broadcast)
    6       2     prev_hop   link-layer sender (set per hop)
    8       1     type       PacketType
    9       2     packet_id  per-origin sequence number (wraps at 2^16)
    11      1     ttl        remaining hop budget
    12      1     flags      bit 0: ACK_REQUESTED, bit 1: FRAGMENT
    13      1     length     payload length N
    14      N     payload
    14+N    2     crc16      CCITT over header+payload

Control payloads (HELLO, ROUTE, ACK) have their own fixed encodings defined
here so that the reported wire sizes — which drive airtime and therefore
every overhead experiment — are honest byte counts, not Python object sizes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import List, NamedTuple, Tuple

from repro.errors import DecodeError, EncodeError
from repro.mesh.addressing import BROADCAST

HEADER_FORMAT = "!HHHHBHBBB"
HEADER_SIZE = struct.calcsize(HEADER_FORMAT)  # 14 bytes
CRC_SIZE = 2
#: Maximum payload so header+payload+crc fits the 255-byte radio FIFO.
MAX_PAYLOAD = 255 - HEADER_SIZE - CRC_SIZE

FLAG_ACK_REQUESTED = 0x01
FLAG_FRAGMENT = 0x02


class PacketType(IntEnum):
    """Mesh frame types."""

    HELLO = 1
    ROUTE = 2
    DATA = 3
    ACK = 4
    TELEMETRY = 5
    #: Application-level end-to-end acknowledgement (routed like DATA);
    #: used by the reliable messenger, not by the per-hop MAC.
    APP_ACK = 6


def crc16_ccitt(data: bytes, initial: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE, the checksum SX127x-era firmware commonly uses."""
    crc = initial
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


@dataclass(frozen=True)
class Packet:
    """One mesh frame.

    ``dst``/``src`` are end-to-end; ``next_hop``/``prev_hop`` are rewritten
    at every hop.  ``packet_id`` is assigned by the origin and preserved
    across hops, which is what lets the monitoring server correlate the same
    packet observed at multiple nodes.
    """

    dst: int
    src: int
    ptype: PacketType
    packet_id: int
    payload: bytes = b""
    next_hop: int = BROADCAST
    prev_hop: int = 0
    ttl: int = 10
    flags: int = 0

    def __post_init__(self) -> None:
        if len(self.payload) > MAX_PAYLOAD:
            raise EncodeError(
                f"payload of {len(self.payload)} bytes exceeds MTU {MAX_PAYLOAD}"
            )
        for name in ("dst", "src", "next_hop", "prev_hop", "packet_id"):
            value = getattr(self, name)
            if not (0 <= value <= 0xFFFF):
                raise EncodeError(f"{name}={value} does not fit in 16 bits")
        if not (0 <= self.ttl <= 0xFF):
            raise EncodeError(f"ttl={self.ttl} does not fit in 8 bits")
        if not (0 <= self.flags <= 0xFF):
            raise EncodeError(f"flags={self.flags} does not fit in 8 bits")

    @property
    def wants_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK_REQUESTED)

    @property
    def is_fragment(self) -> bool:
        return bool(self.flags & FLAG_FRAGMENT)

    @property
    def wire_size(self) -> int:
        """Exact frame size on the air, in bytes."""
        return HEADER_SIZE + len(self.payload) + CRC_SIZE

    def key(self) -> Tuple[int, int]:
        """(origin, packet_id): the network-wide identity of this packet."""
        return (self.src, self.packet_id)

    def hop(self, next_hop: int, prev_hop: int) -> "Packet":
        """Copy rewritten for the next hop, with TTL decremented."""
        return replace(self, next_hop=next_hop, prev_hop=prev_hop, ttl=self.ttl - 1)

    def encode(self) -> bytes:
        """Serialize to wire bytes (header + payload + CRC)."""
        header = struct.pack(
            HEADER_FORMAT,
            self.dst,
            self.src,
            self.next_hop,
            self.prev_hop,
            int(self.ptype),
            self.packet_id,
            self.ttl,
            self.flags,
            len(self.payload),
        )
        body = header + self.payload
        return body + struct.pack("!H", crc16_ccitt(body))

    @classmethod
    def decode(cls, raw: bytes) -> "Packet":
        """Parse wire bytes back into a :class:`Packet`.

        Raises:
            DecodeError: on truncation, bad CRC, unknown type or a length
                field that disagrees with the buffer.
        """
        if len(raw) < HEADER_SIZE + CRC_SIZE:
            raise DecodeError(f"frame of {len(raw)} bytes is shorter than the minimum")
        dst, src, next_hop, prev_hop, ptype_raw, packet_id, ttl, flags, length = struct.unpack(
            HEADER_FORMAT, raw[:HEADER_SIZE]
        )
        expected_size = HEADER_SIZE + length + CRC_SIZE
        if len(raw) != expected_size:
            raise DecodeError(
                f"frame size {len(raw)} does not match header length field ({expected_size})"
            )
        body, crc_bytes = raw[:-CRC_SIZE], raw[-CRC_SIZE:]
        (crc,) = struct.unpack("!H", crc_bytes)
        if crc != crc16_ccitt(body):
            raise DecodeError("CRC mismatch")
        try:
            ptype = PacketType(ptype_raw)
        except ValueError as exc:
            raise DecodeError(f"unknown packet type {ptype_raw}") from exc
        return cls(
            dst=dst,
            src=src,
            next_hop=next_hop,
            prev_hop=prev_hop,
            ptype=ptype,
            packet_id=packet_id,
            ttl=ttl,
            flags=flags,
            payload=raw[HEADER_SIZE:HEADER_SIZE + length],
        )


# --------------------------------------------------------------------------
# Control payload encodings
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HelloPayload:
    """Periodic beacon contents: coarse node status.

    Attributes:
        uptime_s: seconds since boot (saturating 32-bit).
        queue_depth: frames waiting in the MAC queue.
        route_count: entries in the node's route table.
        battery_centivolt: battery voltage * 100 (e.g. 370 = 3.70 V).
    """

    uptime_s: int
    queue_depth: int
    route_count: int
    battery_centivolt: int

    _FORMAT = "!IBBH"

    def encode(self) -> bytes:
        return struct.pack(
            self._FORMAT,
            min(self.uptime_s, 0xFFFFFFFF),
            min(self.queue_depth, 0xFF),
            min(self.route_count, 0xFF),
            min(self.battery_centivolt, 0xFFFF),
        )

    @classmethod
    def decode(cls, raw: bytes) -> "HelloPayload":
        try:
            uptime, queue_depth, route_count, battery = struct.unpack(cls._FORMAT, raw)
        except struct.error as exc:
            raise DecodeError(f"bad HELLO payload of {len(raw)} bytes") from exc
        return cls(uptime, queue_depth, route_count, battery)


class RouteVectorEntry(NamedTuple):
    """One (destination, metric) pair in a routing broadcast."""

    dst: int
    metric: int


@dataclass(frozen=True)
class RoutePayload:
    """Distance-vector routing broadcast: the sender's reachable set."""

    entries: List[RouteVectorEntry] = field(default_factory=list)

    _ENTRY_FORMAT = "!HB"
    ENTRY_SIZE = struct.calcsize(_ENTRY_FORMAT)

    def encode(self) -> bytes:
        """Serialize to the count byte followed by one (dst, metric) pair
        per entry.

        Raises:
            EncodeError: for more than 255 entries, or an entry whose
                ``dst`` does not fit in 16 bits or ``metric`` in 8.
        """
        if len(self.entries) > 0xFF:
            raise EncodeError(f"route vector of {len(self.entries)} entries exceeds 255")
        parts = [struct.pack("!B", len(self.entries))]
        for entry in self.entries:
            if not (0 <= entry.dst <= 0xFFFF):
                raise EncodeError(f"dst {entry.dst} does not fit in 16 bits")
            if not (0 <= entry.metric <= 0xFF):
                raise EncodeError(f"metric {entry.metric} does not fit in 8 bits")
            parts.append(struct.pack(self._ENTRY_FORMAT, entry.dst, entry.metric))
        return b"".join(parts)

    @classmethod
    def decode(cls, raw: bytes) -> "RoutePayload":
        if len(raw) < 1:
            raise DecodeError("empty ROUTE payload")
        count = raw[0]
        expected = 1 + count * cls.ENTRY_SIZE
        if len(raw) != expected:
            raise DecodeError(
                f"ROUTE payload of {len(raw)} bytes does not match {count} entries"
            )
        entries = [
            RouteVectorEntry(dst, metric)
            for dst, metric in struct.iter_unpack(cls._ENTRY_FORMAT, raw[1:])
        ]
        return cls(entries=entries)

    @classmethod
    def max_entries_per_frame(cls) -> int:
        """How many route entries fit in one frame's payload."""
        return min((MAX_PAYLOAD - 1) // cls.ENTRY_SIZE, 0xFF)


@dataclass(frozen=True)
class AckPayload:
    """Per-hop acknowledgement: identifies the acked frame."""

    acked_src: int
    acked_packet_id: int

    _FORMAT = "!HH"

    def encode(self) -> bytes:
        return struct.pack(self._FORMAT, self.acked_src, self.acked_packet_id)

    @classmethod
    def decode(cls, raw: bytes) -> "AckPayload":
        try:
            acked_src, acked_packet_id = struct.unpack(cls._FORMAT, raw)
        except struct.error as exc:
            raise DecodeError(f"bad ACK payload of {len(raw)} bytes") from exc
        return cls(acked_src, acked_packet_id)
