"""Telemetry record schema.

The paper's client "periodically sends to a server detailed information
about the node's in- and outgoing LoRa packets".  Two record kinds carry
that information:

* :class:`PacketRecord` — one observation of one frame at one node, either
  ``IN`` (every frame the radio demodulated, including frames addressed to
  other nodes — the medium is broadcast) or ``OUT`` (every physical
  transmission, including retransmissions, with its airtime);
* :class:`StatusRecord` — a periodic snapshot of node health (uptime,
  queue, tables, battery, counters, duty-cycle utilisation) plus the
  node's neighbor view with link-quality EWMAs, which is what lets the
  server reconstruct the network topology.

Records travel in a :class:`RecordBatch` with two encodings:

* **JSON** for the out-of-band (WiFi/HTTP) uplink — the paper's path;
* a compact **binary** encoding for the in-band uplink, where every byte
  costs LoRa airtime.  Experiment T1 reports both sizes.

Each record carries a client-assigned ``seq``; together with the node
address it identifies the record globally, so at-least-once batch retries
deduplicate cleanly at the server.

The JSON decoder accepts a numeric field only as a JSON number no
larger than 2**53 in magnitude (``rssi``/``snr`` may also be null): a
string, a boolean, ``NaN``, ``Infinity`` or a larger number raises
:class:`~repro.errors.DecodeError`, so a batch the server cannot
aggregate is refused before any of it is stored.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import DecodeError, EncodeError
from repro.monitor.ingest import (
    DEFAULT_NETWORK_ID,
    is_valid_network_id,
    validate_network_id,
)

SCHEMA_VERSION = 1

_BATCH_MAGIC = 0x4C4D  # "LM"


class Direction(str, Enum):
    """Which side of the radio a packet observation comes from."""

    IN = "in"
    OUT = "out"


def _clamp(value: int, low: int, high: int) -> int:
    return max(low, min(high, value))


#: The largest magnitude a JSON number may have.  2**53 is the range in
#: which JSON implementations agree on integers (RFC 7493), and it keeps
#: every sum and difference the server aggregates finite: two timestamps
#: at opposite ends of it still give a finite latency.
MAX_JSON_MAGNITUDE = 1 << 53


def _int(data: Dict[str, Any], key: str) -> int:
    """``data[key]`` as an int; it must be a JSON number within range."""
    value = data[key]
    if type(value) is int and -MAX_JSON_MAGNITUDE <= value <= MAX_JSON_MAGNITUDE:
        return value
    return int(_number(value, key))


def _float(data: Dict[str, Any], key: str) -> float:
    """``data[key]`` as a float; it must be a JSON number within range."""
    value = data[key]
    if type(value) is float and -MAX_JSON_MAGNITUDE <= value <= MAX_JSON_MAGNITUDE:
        return value
    return float(_number(value, key))


def _number(value: Any, key: str) -> Any:
    """``value`` when it is an int or float within range, else DecodeError.

    The range check also refuses ``NaN`` (it compares false) and the
    infinities.
    """
    kind = type(value)
    if (kind is int or kind is float) and -MAX_JSON_MAGNITUDE <= value <= MAX_JSON_MAGNITUDE:
        return value
    raise DecodeError(
        f"field {key!r} must be a number of magnitude at most 2**53, got {value!r}"
    )


@dataclass(frozen=True)
class PacketRecord:
    """One packet observation at one node.

    Attributes:
        node: observer address.
        seq: client-assigned sequence number (dedup key with ``node``).
        timestamp: observation time in seconds.
        direction: IN or OUT.
        src/dst: end-to-end addresses from the mesh header.
        next_hop/prev_hop: link-layer addresses from the mesh header.
        ptype: numeric packet type.
        packet_id: origin-assigned packet id (correlates observations of
            the same packet across nodes).
        size_bytes: frame size on the air.
        rssi_dbm/snr_db: reception quality (IN records only).
        airtime_s: frame airtime (OUT records only).
        attempt: transmission attempt number, 1 = first try (OUT only).
    """

    node: int
    seq: int
    timestamp: float
    direction: Direction
    src: int
    dst: int
    next_hop: int
    prev_hop: int
    ptype: int
    packet_id: int
    size_bytes: int
    rssi_dbm: Optional[float] = None
    snr_db: Optional[float] = None
    airtime_s: Optional[float] = None
    attempt: int = 1

    _BINARY_FORMAT = "!BHIHHHHBHHhhHB"
    _STRUCT = struct.Struct(_BINARY_FORMAT)
    BINARY_SIZE = _STRUCT.size

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict (omits fields that do not apply)."""
        data: Dict[str, Any] = {
            "kind": "packet",
            "node": self.node,
            "seq": self.seq,
            "ts": round(self.timestamp, 3),
            "dir": self.direction.value,
            "src": self.src,
            "dst": self.dst,
            "next_hop": self.next_hop,
            "prev_hop": self.prev_hop,
            "ptype": self.ptype,
            "packet_id": self.packet_id,
            "size": self.size_bytes,
        }
        if self.direction is Direction.IN:
            data["rssi"] = round(self.rssi_dbm, 1) if self.rssi_dbm is not None else None
            data["snr"] = round(self.snr_db, 1) if self.snr_db is not None else None
        else:
            data["airtime_ms"] = round((self.airtime_s or 0.0) * 1000, 2)
            data["attempt"] = self.attempt
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "PacketRecord":
        try:
            direction = Direction(data["dir"])
            rssi = data.get("rssi")
            snr = data.get("snr")
            airtime_ms = data.get("airtime_ms")
            return cls(
                node=_int(data, "node"),
                seq=_int(data, "seq"),
                timestamp=_float(data, "ts"),
                direction=direction,
                src=_int(data, "src"),
                dst=_int(data, "dst"),
                next_hop=_int(data, "next_hop"),
                prev_hop=_int(data, "prev_hop"),
                ptype=_int(data, "ptype"),
                packet_id=_int(data, "packet_id"),
                size_bytes=_int(data, "size"),
                rssi_dbm=None if rssi is None else float(_number(rssi, "rssi")),
                snr_db=None if snr is None else float(_number(snr, "snr")),
                airtime_s=(
                    (0.0 if airtime_ms is None else float(_number(airtime_ms, "airtime_ms"))) / 1000
                    if direction is Direction.OUT
                    else None
                ),
                attempt=_int(data, "attempt") if "attempt" in data else 1,
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise DecodeError(f"bad packet record: {exc}") from exc

    def to_binary(self) -> bytes:
        """Compact fixed-size encoding for the in-band uplink.

        The clamps are spelled as branches (taken only for out-of-range
        values) rather than ``_clamp`` calls: every binary-encoded batch
        goes through this method, so the per-record cost is what the
        codec benchmark table measures.
        """
        rssi_tenths = round((self.rssi_dbm or 0.0) * 10)
        if rssi_tenths < -32768:
            rssi_tenths = -32768
        elif rssi_tenths > 32767:
            rssi_tenths = 32767
        snr_tenths = round((self.snr_db or 0.0) * 10)
        if snr_tenths < -32768:
            snr_tenths = -32768
        elif snr_tenths > 32767:
            snr_tenths = 32767
        airtime_ms = round((self.airtime_s or 0.0) * 1000)
        if airtime_ms < 0:
            airtime_ms = 0
        elif airtime_ms > 0xFFFF:
            airtime_ms = 0xFFFF
        ts_cs = round(self.timestamp * 100)
        if ts_cs < 0:
            ts_cs = 0
        elif ts_cs > 0xFFFFFFFF:
            ts_cs = 0xFFFFFFFF
        size_bytes = self.size_bytes
        if size_bytes < 0:
            size_bytes = 0
        elif size_bytes > 0xFFFF:
            size_bytes = 0xFFFF
        attempt = self.attempt
        if attempt < 0:
            attempt = 0
        elif attempt > 0xFF:
            attempt = 0xFF
        return self._STRUCT.pack(
            0 if self.direction is Direction.IN else 1,
            self.seq & 0xFFFF,
            ts_cs,
            self.src,
            self.dst,
            self.next_hop,
            self.prev_hop,
            self.ptype,
            self.packet_id,
            size_bytes,
            rssi_tenths,
            snr_tenths,
            airtime_ms,
            attempt,
        )

    @classmethod
    def from_binary_at(cls, raw: bytes, offset: int, node: int) -> "PacketRecord":
        """Decode one record at ``offset`` without slicing the buffer.

        Builds the (frozen) instance by assigning ``__dict__`` directly:
        the dataclass ``__init__`` costs one ``object.__setattr__`` per
        field, which dominates batch decoding.  There is no
        ``__post_init__`` to skip.
        """
        try:
            (
                flags, seq, ts_cs, src, dst, next_hop, prev_hop, ptype,
                packet_id, size_bytes, rssi_tenths, snr_tenths, airtime_ms, attempt,
            ) = cls._STRUCT.unpack_from(raw, offset)
        except struct.error as exc:
            raise DecodeError(
                f"bad binary packet record of {len(raw) - offset} bytes"
            ) from exc
        record = object.__new__(cls)
        if flags & 1:
            object.__setattr__(record, "__dict__", {
                "node": node, "seq": seq, "timestamp": ts_cs / 100.0,
                "direction": Direction.OUT, "src": src, "dst": dst,
                "next_hop": next_hop, "prev_hop": prev_hop, "ptype": ptype,
                "packet_id": packet_id, "size_bytes": size_bytes,
                "rssi_dbm": None, "snr_db": None,
                "airtime_s": airtime_ms / 1000.0, "attempt": attempt,
            })
        else:
            object.__setattr__(record, "__dict__", {
                "node": node, "seq": seq, "timestamp": ts_cs / 100.0,
                "direction": Direction.IN, "src": src, "dst": dst,
                "next_hop": next_hop, "prev_hop": prev_hop, "ptype": ptype,
                "packet_id": packet_id, "size_bytes": size_bytes,
                "rssi_dbm": rssi_tenths / 10.0, "snr_db": snr_tenths / 10.0,
                "airtime_s": None, "attempt": attempt,
            })
        return record

    @classmethod
    def from_binary(cls, raw: bytes, node: int) -> "PacketRecord":
        if len(raw) != cls.BINARY_SIZE:
            raise DecodeError(f"bad binary packet record of {len(raw)} bytes")
        return cls.from_binary_at(raw, 0, node)


@dataclass(frozen=True)
class NeighborObservation:
    """One neighbor-table entry shipped inside a status record."""

    address: int
    rssi_dbm: float
    snr_db: float
    frames_heard: int

    _BINARY_FORMAT = "!HhhH"
    BINARY_SIZE = struct.calcsize(_BINARY_FORMAT)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "addr": self.address,
            "rssi": round(self.rssi_dbm, 1),
            "snr": round(self.snr_db, 1),
            "heard": self.frames_heard,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "NeighborObservation":
        try:
            return cls(
                address=_int(data, "addr"),
                rssi_dbm=_float(data, "rssi"),
                snr_db=_float(data, "snr"),
                frames_heard=_int(data, "heard"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise DecodeError(f"bad neighbor observation: {exc}") from exc

    def to_binary(self) -> bytes:
        return struct.pack(
            self._BINARY_FORMAT,
            self.address,
            _clamp(int(round(self.rssi_dbm * 10)), -32768, 32767),
            _clamp(int(round(self.snr_db * 10)), -32768, 32767),
            _clamp(self.frames_heard, 0, 0xFFFF),
        )

    @classmethod
    def from_binary(cls, raw: bytes) -> "NeighborObservation":
        try:
            address, rssi_tenths, snr_tenths, heard = struct.unpack(cls._BINARY_FORMAT, raw)
        except struct.error as exc:
            raise DecodeError(f"bad binary neighbor observation") from exc
        return cls(address=address, rssi_dbm=rssi_tenths / 10.0, snr_db=snr_tenths / 10.0, frames_heard=heard)


@dataclass(frozen=True)
class StatusRecord:
    """Periodic node-health snapshot."""

    node: int
    seq: int
    timestamp: float
    uptime_s: float
    queue_depth: int
    route_count: int
    neighbor_count: int
    battery_v: float
    tx_frames: int
    tx_airtime_s: float
    retransmissions: int
    drops: int
    duty_utilisation: float
    originated: int
    delivered: int
    forwarded: int
    neighbors: Tuple[NeighborObservation, ...] = ()

    _BINARY_FORMAT = "!HIIBBBHIIHHHIIIB"
    BINARY_HEADER_SIZE = struct.calcsize(_BINARY_FORMAT)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "kind": "status",
            "node": self.node,
            "seq": self.seq,
            "ts": round(self.timestamp, 3),
            "uptime_s": round(self.uptime_s, 1),
            "queue": self.queue_depth,
            "routes": self.route_count,
            "neighbors_n": self.neighbor_count,
            "battery_v": round(self.battery_v, 2),
            "tx_frames": self.tx_frames,
            "tx_airtime_s": round(self.tx_airtime_s, 4),
            "retx": self.retransmissions,
            "drops": self.drops,
            "duty": round(self.duty_utilisation, 4),
            "originated": self.originated,
            "delivered": self.delivered,
            "forwarded": self.forwarded,
            "neighbors": [n.to_json_dict() for n in self.neighbors],
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "StatusRecord":
        try:
            return cls(
                node=_int(data, "node"),
                seq=_int(data, "seq"),
                timestamp=_float(data, "ts"),
                uptime_s=_float(data, "uptime_s"),
                queue_depth=_int(data, "queue"),
                route_count=_int(data, "routes"),
                neighbor_count=_int(data, "neighbors_n"),
                battery_v=_float(data, "battery_v"),
                tx_frames=_int(data, "tx_frames"),
                tx_airtime_s=_float(data, "tx_airtime_s"),
                retransmissions=_int(data, "retx"),
                drops=_int(data, "drops"),
                duty_utilisation=_float(data, "duty"),
                originated=_int(data, "originated"),
                delivered=_int(data, "delivered"),
                forwarded=_int(data, "forwarded"),
                neighbors=tuple(
                    NeighborObservation.from_json_dict(item) for item in data.get("neighbors", [])
                ),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise DecodeError(f"bad status record: {exc}") from exc

    def to_binary(self) -> bytes:
        if len(self.neighbors) > 0xFF:
            raise EncodeError(f"{len(self.neighbors)} neighbors exceed binary limit 255")
        header = struct.pack(
            self._BINARY_FORMAT,
            self.seq & 0xFFFF,
            _clamp(int(round(self.timestamp * 100)), 0, 0xFFFFFFFF),
            _clamp(int(self.uptime_s), 0, 0xFFFFFFFF),
            _clamp(self.queue_depth, 0, 0xFF),
            _clamp(self.route_count, 0, 0xFF),
            _clamp(self.neighbor_count, 0, 0xFF),
            _clamp(int(round(self.battery_v * 100)), 0, 0xFFFF),
            _clamp(self.tx_frames, 0, 0xFFFFFFFF),
            _clamp(int(round(self.tx_airtime_s * 1000)), 0, 0xFFFFFFFF),
            _clamp(self.retransmissions, 0, 0xFFFF),
            _clamp(self.drops, 0, 0xFFFF),
            _clamp(int(round(self.duty_utilisation * 1000)), 0, 0xFFFF),
            _clamp(self.originated, 0, 0xFFFFFFFF),
            _clamp(self.delivered, 0, 0xFFFFFFFF),
            _clamp(self.forwarded, 0, 0xFFFFFFFF),
            len(self.neighbors),
        )
        return header + b"".join(n.to_binary() for n in self.neighbors)

    @classmethod
    def from_binary(cls, raw: bytes, node: int) -> Tuple["StatusRecord", int]:
        """Decode from ``raw``; returns (record, bytes_consumed)."""
        if len(raw) < cls.BINARY_HEADER_SIZE:
            raise DecodeError(f"status record header truncated ({len(raw)} bytes)")
        (
            seq, ts_cs, uptime, queue, routes, neigh_count, battery_cv,
            tx_frames, tx_airtime_ms, retx, drops, duty_permille,
            originated, delivered, forwarded, n_neighbors,
        ) = struct.unpack(cls._BINARY_FORMAT, raw[:cls.BINARY_HEADER_SIZE])
        offset = cls.BINARY_HEADER_SIZE
        need = offset + n_neighbors * NeighborObservation.BINARY_SIZE
        if len(raw) < need:
            raise DecodeError("status record neighbor list truncated")
        neighbors = []
        for _ in range(n_neighbors):
            neighbors.append(
                NeighborObservation.from_binary(raw[offset:offset + NeighborObservation.BINARY_SIZE])
            )
            offset += NeighborObservation.BINARY_SIZE
        record = cls(
            node=node,
            seq=seq,
            timestamp=ts_cs / 100.0,
            uptime_s=float(uptime),
            queue_depth=queue,
            route_count=routes,
            neighbor_count=neigh_count,
            battery_v=battery_cv / 100.0,
            tx_frames=tx_frames,
            tx_airtime_s=tx_airtime_ms / 1000.0,
            retransmissions=retx,
            drops=drops,
            duty_utilisation=duty_permille / 1000.0,
            originated=originated,
            delivered=delivered,
            forwarded=forwarded,
            neighbors=tuple(neighbors),
        )
        return record, offset


@dataclass(frozen=True)
class RecordBatch:
    """One client-to-server shipment."""

    node: int
    batch_seq: int
    sent_at: float
    packet_records: Tuple[PacketRecord, ...] = ()
    status_records: Tuple[StatusRecord, ...] = ()
    schema_version: int = SCHEMA_VERSION
    #: Packet records the client dropped because its buffer overflowed
    #: before this batch (lets the server quantify observation loss).
    dropped_records: int = 0
    #: Mesh network this batch belongs to.  Single-network deployments
    #: leave the default; the server routes each batch to its network's
    #: shard.  The JSON wire format only carries the key for non-default
    #: networks, so legacy bodies stay byte-identical.
    network_id: str = DEFAULT_NETWORK_ID

    def __post_init__(self) -> None:
        validate_network_id(self.network_id)

    @property
    def record_count(self) -> int:
        return len(self.packet_records) + len(self.status_records)

    def to_json_bytes(self) -> bytes:
        """The out-of-band wire format (what the paper's client POSTs)."""
        document = {
            "v": self.schema_version,
            "node": self.node,
            "batch_seq": self.batch_seq,
            "sent_at": round(self.sent_at, 3),
            "dropped": self.dropped_records,
            "packets": [r.to_json_dict() for r in self.packet_records],
            "status": [r.to_json_dict() for r in self.status_records],
        }
        if self.network_id != DEFAULT_NETWORK_ID:
            document["net"] = self.network_id
        return json.dumps(document, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "RecordBatch":
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DecodeError(f"batch is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise DecodeError("batch JSON is not an object")
        version = document.get("v")
        if version != SCHEMA_VERSION:
            raise DecodeError(f"unsupported schema version {version!r}")
        try:
            node = _int(document, "node")
            batch_seq = _int(document, "batch_seq")
            sent_at = _float(document, "sent_at")
            dropped = _int(document, "dropped") if "dropped" in document else 0
            network_id = document.get("net", DEFAULT_NETWORK_ID)
            packets = tuple(
                PacketRecord.from_json_dict(item) for item in document.get("packets", [])
            )
            status = tuple(
                StatusRecord.from_json_dict(item) for item in document.get("status", [])
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise DecodeError(f"bad batch fields: {exc}") from exc
        if not isinstance(network_id, str) or not is_valid_network_id(network_id):
            raise DecodeError(f"bad network id {network_id!r}")
        return cls(
            node=node,
            batch_seq=batch_seq,
            sent_at=sent_at,
            packet_records=packets,
            status_records=status,
            dropped_records=dropped,
            network_id=network_id,
        )

    _BINARY_HEADER = "!HBHHIHHB"

    def to_binary(self) -> bytes:
        """Compact encoding for the in-band uplink."""
        if len(self.packet_records) > 0xFFFF or len(self.status_records) > 0xFF:
            raise EncodeError("too many records for a binary batch")
        header = struct.pack(
            self._BINARY_HEADER,
            _BATCH_MAGIC,
            self.schema_version,
            self.node,
            self.batch_seq & 0xFFFF,
            _clamp(int(round(self.sent_at * 100)), 0, 0xFFFFFFFF),
            _clamp(self.dropped_records, 0, 0xFFFF),
            len(self.packet_records),
            len(self.status_records),
        )
        parts = [header]
        parts.extend(record.to_binary() for record in self.packet_records)
        parts.extend(record.to_binary() for record in self.status_records)
        return b"".join(parts)

    @classmethod
    def from_binary(cls, raw: bytes) -> "RecordBatch":
        header_size = struct.calcsize(cls._BINARY_HEADER)
        if len(raw) < header_size:
            raise DecodeError(f"binary batch of {len(raw)} bytes is truncated")
        magic, version, node, batch_seq, sent_cs, dropped, n_packets, n_status = struct.unpack(
            cls._BINARY_HEADER, raw[:header_size]
        )
        if magic != _BATCH_MAGIC:
            raise DecodeError(f"bad batch magic 0x{magic:04X}")
        if version != SCHEMA_VERSION:
            raise DecodeError(f"unsupported schema version {version}")
        offset = header_size
        if len(raw) < offset + n_packets * PacketRecord.BINARY_SIZE:
            raise DecodeError("binary batch packet records truncated")
        packets: List[PacketRecord] = []
        for _ in range(n_packets):
            packets.append(PacketRecord.from_binary_at(raw, offset, node))
            offset += PacketRecord.BINARY_SIZE
        status: List[StatusRecord] = []
        for _ in range(n_status):
            record, consumed = StatusRecord.from_binary(raw[offset:], node=node)
            status.append(record)
            offset += consumed
        if offset != len(raw):
            raise DecodeError(f"{len(raw) - offset} trailing bytes after binary batch")
        return cls(
            node=node,
            batch_seq=batch_seq,
            sent_at=sent_cs / 100.0,
            packet_records=tuple(packets),
            status_records=tuple(status),
            dropped_records=dropped,
        )
