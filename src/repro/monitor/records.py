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
* a compact **binary** encoding (``repro.monitor.codec.BinaryCodec``)
  for the in-band uplink, where every byte costs LoRa airtime, and for
  telemetry datagrams.  Experiment T1 reports both sizes.

Each record carries a client-assigned ``seq``; together with the node
address it identifies the record globally, so at-least-once batch retries
deduplicate cleanly at the server.  Both encodings carry the full seq
(32 bits in the binary layout, whose encoder refuses a larger one rather
than wrap it: a wrapped seq would be taken for a replay).

Records are :class:`typing.NamedTuple` classes.  Every observed frame
becomes a record twice, once at the client and once when the server
decodes it, so a record must be cheap to build and to keep: a named
tuple is built by one positional call, about five times faster than a
frozen dataclass (which pays one ``object.__setattr__`` per field), and
a packet record takes 160 bytes with no ``__dict__`` (248 as a
dataclass).  It stays immutable and hashable, which the server's
:class:`~repro.monitor.aggregate.ViewAggregate` relies on: it subtracts
an evicted record's own fields, so a record changed after it was counted
would corrupt every later view.  ``dataclass(slots=True)`` would need
Python 3.10; the package supports 3.9.  Client capture, JSON decode,
status-record binary decode and SQLite rows build records through the
positional constructor; :func:`decode_packed_records` builds packet
records with ``tuple.__new__(PacketRecord, fields)``, which skips the
constructor's Python-level ``__new__`` and gives a record equal to the
constructor's in class, fields and hash.  The binary layouts are module
constants (:data:`PACKET_FORMAT`, :data:`STATUS_HEADER_FORMAT`,
:data:`NEIGHBOR_FORMAT`) because a named tuple's body holds only fields.
Readers that touch most fields unpack the tuple once: a named-tuple
attribute read costs more than a dataclass's.

The JSON text is written straight from the record tuples: each record
kind (packet IN, packet OUT, status, neighbor) has one ``%`` template,
and :meth:`RecordBatch.to_json_bytes` joins the records' texts into the
batch template, with no dict per record and no ``json.dumps``.  The
text is byte for byte ``json.dumps(document, separators=(",", ":"))``
of the document the records' ``to_json_dict`` describe (which remains
as the CSV export's row and the test oracle).  A float of magnitude
below 1e11 is written in fixed point (``"%.3f"`` and its kin, trailing
zeros trimmed), which is exactly ``repr(round(value, digits))`` for the
at most 15 significant digits such a value has, at about half the cost
of ``round`` then ``repr``; any other value (``None``, ``NaN``, the
infinities, larger magnitudes, an int in a float field) is spelled as
``json.dumps`` spells it.  Integer fields are written with ``%d``, so
they must hold ints, as every construction path gives.  The binary
codec writes a batch's records through :func:`encode_packed_records`
and reads them back through :func:`decode_packed_records`, which unpacks
all packet records in one ``struct.iter_unpack`` pass.

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
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type, cast,
)

from repro.errors import DecodeError, EncodeError
from repro.monitor.ingest import (
    DEFAULT_NETWORK_ID,
    is_valid_network_id,
    validate_network_id,
)

SCHEMA_VERSION = 2


class Direction(str, Enum):
    """Which side of the radio a packet observation comes from."""

    IN = "in"
    OUT = "out"


#: Wire spelling -> direction, for the JSON ``dir`` field and the SQLite
#: ``direction`` column: a dict lookup instead of an enum call per record.
DIRECTIONS: Dict[str, Direction] = {"in": Direction.IN, "out": Direction.OUT}

#: Packet record layout: flags (bit 0: OUT), seq, timestamp (cs), src,
#: dst, next_hop, prev_hop, ptype, packet_id, size, rssi and snr (x 10),
#: airtime (ms), attempt.
PACKET_FORMAT = "!BIIHHHHBHHhhHB"
_PACKET_STRUCT = struct.Struct(PACKET_FORMAT)
PACKET_SIZE = _PACKET_STRUCT.size

#: Neighbor entry layout: address, rssi and snr (x 10), frames heard.
NEIGHBOR_FORMAT = "!HhhH"
_NEIGHBOR_STRUCT = struct.Struct(NEIGHBOR_FORMAT)
NEIGHBOR_SIZE = _NEIGHBOR_STRUCT.size

#: Status record header layout; ``n_neighbors`` neighbor entries follow.
STATUS_HEADER_FORMAT = "!IIIBBBHIIHHHIIIB"
_STATUS_STRUCT = struct.Struct(STATUS_HEADER_FORMAT)
STATUS_HEADER_SIZE = _STATUS_STRUCT.size


def _clamp(value: int, low: int, high: int) -> int:
    return max(low, min(high, value))


_INF = float("inf")

#: Floats of smaller magnitude are written in fixed point.  Printed with
#: at most four decimals such a float has at most 15 significant digits,
#: so its correctly rounded fixed-point text, trimmed of trailing zeros,
#: is the shortest text of ``round(value, digits)``: what ``repr`` (and
#: so ``json.dumps``) writes.  The writers test a record's floats at once
#: by the sum of their squares, against :data:`_FIXED_LIMIT_SQUARED`
#: (exact: 1e22 is a double, and rounding keeps order).
_FIXED_LIMIT = 1e11
_FIXED_LIMIT_SQUARED = _FIXED_LIMIT * _FIXED_LIMIT


def _trim(text: str) -> str:
    """Fixed-point ``text`` without the trailing zeros ``repr`` drops."""
    text = text.rstrip("0")
    return text + "0" if text[-1] == "." else text


def _json_number(value: Optional[float], digits: int) -> str:
    """``round(value, digits)`` (or ``None``) as ``json.dumps`` writes it."""
    if value is None:
        return "null"
    value = round(value, digits)
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return repr(value)


def _decimal(value: float, digits: int) -> str:
    """``round(value, digits)`` as ``json.dumps`` writes it, for ``digits <= 4``."""
    if type(value) is float and -_FIXED_LIMIT < value < _FIXED_LIMIT:
        text = "%.*f" % (digits, value)
        return _trim(text) if text[-1] == "0" else text
    return _json_number(value, digits)


#: One JSON template per record kind, in the key order of ``to_json_dict``.
_PACKET_IN_JSON = (
    '{"kind":"packet","node":%d,"seq":%d,"ts":%s,"dir":"in","src":%d,"dst":%d,'
    '"next_hop":%d,"prev_hop":%d,"ptype":%d,"packet_id":%d,"size":%d,'
    '"rssi":%s,"snr":%s}'
)
_PACKET_OUT_JSON = (
    '{"kind":"packet","node":%d,"seq":%d,"ts":%s,"dir":"out","src":%d,"dst":%d,'
    '"next_hop":%d,"prev_hop":%d,"ptype":%d,"packet_id":%d,"size":%d,'
    '"airtime_ms":%s,"attempt":%d}'
)
_NEIGHBOR_JSON = '{"addr":%d,"rssi":%s,"snr":%s,"heard":%d}'
_STATUS_JSON = (
    '{"kind":"status","node":%d,"seq":%d,"ts":%s,"uptime_s":%s,"queue":%d,'
    '"routes":%d,"neighbors_n":%d,"battery_v":%s,"tx_frames":%d,'
    '"tx_airtime_s":%s,"retx":%d,"drops":%d,"duty":%s,"originated":%d,'
    '"delivered":%d,"forwarded":%d,"neighbors":[%s]}'
)
_BATCH_JSON = (
    '{"v":%d,"node":%d,"batch_seq":%d,"sent_at":%s,"dropped":%d,'
    '"packets":[%s],"status":[%s]%s}'
)


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


class PacketRecord(NamedTuple):
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

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict (omits fields that do not apply).

        The CSV export's row; :meth:`to_json_text` writes the same object
        as JSON text.
        """
        (
            node, seq, timestamp, direction, src, dst, next_hop, prev_hop,
            ptype, packet_id, size_bytes, rssi_dbm, snr_db, airtime_s, attempt,
        ) = self
        incoming = direction is Direction.IN
        data: Dict[str, Any] = {
            "kind": "packet",
            "node": node,
            "seq": seq,
            "ts": round(timestamp, 3),
            "dir": "in" if incoming else "out",
            "src": src,
            "dst": dst,
            "next_hop": next_hop,
            "prev_hop": prev_hop,
            "ptype": ptype,
            "packet_id": packet_id,
            "size": size_bytes,
        }
        if incoming:
            data["rssi"] = round(rssi_dbm, 1) if rssi_dbm is not None else None
            data["snr"] = round(snr_db, 1) if snr_db is not None else None
        else:
            data["airtime_ms"] = round((airtime_s or 0.0) * 1000, 2)
            data["attempt"] = attempt
        return data

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict(), separators=(",", ":"))``, from a template.

        Every out-of-band batch writes each of its packet records here, so
        the common case (finite float fields of the usual magnitudes) is
        written inline; any other value takes :func:`_json_number`.
        """
        (
            node, seq, timestamp, direction, src, dst, next_hop, prev_hop,
            ptype, packet_id, size_bytes, rssi_dbm, snr_db, airtime_s, attempt,
        ) = self
        if direction is Direction.IN:
            if (
                type(timestamp) is float and type(rssi_dbm) is float and type(snr_db) is float
                and timestamp * timestamp + rssi_dbm * rssi_dbm + snr_db * snr_db
                < _FIXED_LIMIT_SQUARED
            ):
                ts = "%.3f" % timestamp
                if ts[-1] == "0":
                    ts = _trim(ts)
                rssi = "%.1f" % rssi_dbm
                snr = "%.1f" % snr_db
            else:
                ts = _json_number(timestamp, 3)
                rssi = _json_number(rssi_dbm, 1)
                snr = _json_number(snr_db, 1)
            return _PACKET_IN_JSON % (
                node, seq, ts, src, dst, next_hop, prev_hop, ptype, packet_id, size_bytes,
                rssi, snr,
            )
        airtime_ms = (airtime_s or 0.0) * 1000
        if (
            type(timestamp) is float and type(airtime_ms) is float
            and timestamp * timestamp + airtime_ms * airtime_ms < _FIXED_LIMIT_SQUARED
        ):
            ts = "%.3f" % timestamp
            if ts[-1] == "0":
                ts = _trim(ts)
            airtime = "%.2f" % airtime_ms
            if airtime[-1] == "0":
                airtime = _trim(airtime)
        else:
            ts = _json_number(timestamp, 3)
            airtime = _json_number(airtime_ms, 2)
        return _PACKET_OUT_JSON % (
            node, seq, ts, src, dst, next_hop, prev_hop, ptype, packet_id, size_bytes,
            airtime, attempt,
        )

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "PacketRecord":
        try:
            wire_direction = data["dir"]
            direction = DIRECTIONS.get(wire_direction) if type(wire_direction) is str else None
            if direction is None:
                raise ValueError(f"{wire_direction!r} is not a valid Direction")
            rssi = data.get("rssi")
            snr = data.get("snr")
            airtime_ms = data.get("airtime_ms")
            return cls(
                _int(data, "node"),
                _int(data, "seq"),
                _float(data, "ts"),
                direction,
                _int(data, "src"),
                _int(data, "dst"),
                _int(data, "next_hop"),
                _int(data, "prev_hop"),
                _int(data, "ptype"),
                _int(data, "packet_id"),
                _int(data, "size"),
                None if rssi is None else float(_number(rssi, "rssi")),
                None if snr is None else float(_number(snr, "snr")),
                (
                    (0.0 if airtime_ms is None else float(_number(airtime_ms, "airtime_ms"))) / 1000
                    if direction is Direction.OUT
                    else None
                ),
                _int(data, "attempt") if "attempt" in data else 1,
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise DecodeError(f"bad packet record: {exc}") from exc

    def to_binary(self) -> bytes:
        """Compact fixed-size encoding, as the binary codec packs it.

        The clamps are spelled as branches (taken only for out-of-range
        values) rather than ``_clamp`` calls: every binary-encoded batch
        goes through this method, so the per-record cost is what the
        codec benchmark table measures.  ``seq`` is never clamped: one
        outside uint32 makes ``struct`` raise.
        """
        (
            _node, seq, timestamp, direction, src, dst, next_hop, prev_hop,
            ptype, packet_id, size_bytes, rssi_dbm, snr_db, airtime_s, attempt,
        ) = self
        rssi_tenths = round((rssi_dbm or 0.0) * 10)
        if rssi_tenths < -32768:
            rssi_tenths = -32768
        elif rssi_tenths > 32767:
            rssi_tenths = 32767
        snr_tenths = round((snr_db or 0.0) * 10)
        if snr_tenths < -32768:
            snr_tenths = -32768
        elif snr_tenths > 32767:
            snr_tenths = 32767
        airtime_ms = round((airtime_s or 0.0) * 1000)
        if airtime_ms < 0:
            airtime_ms = 0
        elif airtime_ms > 0xFFFF:
            airtime_ms = 0xFFFF
        ts_cs = round(timestamp * 100)
        if ts_cs < 0:
            ts_cs = 0
        elif ts_cs > 0xFFFFFFFF:
            ts_cs = 0xFFFFFFFF
        if size_bytes < 0:
            size_bytes = 0
        elif size_bytes > 0xFFFF:
            size_bytes = 0xFFFF
        if attempt < 0:
            attempt = 0
        elif attempt > 0xFF:
            attempt = 0xFF
        return _PACKET_STRUCT.pack(
            0 if direction is Direction.IN else 1,
            seq,
            ts_cs,
            src,
            dst,
            next_hop,
            prev_hop,
            ptype,
            packet_id,
            size_bytes,
            rssi_tenths,
            snr_tenths,
            airtime_ms,
            attempt,
        )


class NeighborObservation(NamedTuple):
    """One neighbor-table entry shipped inside a status record."""

    address: int
    rssi_dbm: float
    snr_db: float
    frames_heard: int

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict(), separators=(",", ":"))``, from a template."""
        address, rssi_dbm, snr_db, frames_heard = self
        return _NEIGHBOR_JSON % (address, _decimal(rssi_dbm, 1), _decimal(snr_db, 1), frames_heard)

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
                _int(data, "addr"), _float(data, "rssi"), _float(data, "snr"),
                _int(data, "heard"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise DecodeError(f"bad neighbor observation: {exc}") from exc

    def to_binary(self) -> bytes:
        return _NEIGHBOR_STRUCT.pack(
            self.address,
            _clamp(int(round(self.rssi_dbm * 10)), -32768, 32767),
            _clamp(int(round(self.snr_db * 10)), -32768, 32767),
            _clamp(self.frames_heard, 0, 0xFFFF),
        )


class StatusRecord(NamedTuple):
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

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict(), separators=(",", ":"))``, from a template."""
        (
            node, seq, timestamp, uptime_s, queue_depth, route_count, neighbor_count,
            battery_v, tx_frames, tx_airtime_s, retransmissions, drops, duty_utilisation,
            originated, delivered, forwarded, neighbors,
        ) = self
        return _STATUS_JSON % (
            node, seq, _decimal(timestamp, 3), _decimal(uptime_s, 1), queue_depth,
            route_count, neighbor_count, _decimal(battery_v, 2), tx_frames,
            _decimal(tx_airtime_s, 4), retransmissions, drops, _decimal(duty_utilisation, 4),
            originated, delivered, forwarded,
            ",".join(map(NeighborObservation.to_json_text, neighbors)),
        )

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
                _int(data, "node"),
                _int(data, "seq"),
                _float(data, "ts"),
                _float(data, "uptime_s"),
                _int(data, "queue"),
                _int(data, "routes"),
                _int(data, "neighbors_n"),
                _float(data, "battery_v"),
                _int(data, "tx_frames"),
                _float(data, "tx_airtime_s"),
                _int(data, "retx"),
                _int(data, "drops"),
                _float(data, "duty"),
                _int(data, "originated"),
                _int(data, "delivered"),
                _int(data, "forwarded"),
                tuple(
                    NeighborObservation.from_json_dict(item) for item in data.get("neighbors", [])
                ),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise DecodeError(f"bad status record: {exc}") from exc

    def to_binary(self) -> bytes:
        if len(self.neighbors) > 0xFF:
            raise EncodeError(f"{len(self.neighbors)} neighbors exceed binary limit 255")
        header = _STATUS_STRUCT.pack(
            self.seq,
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
    def from_binary_at(cls, raw: bytes, offset: int, node: int) -> Tuple["StatusRecord", int]:
        """Decode one record at ``offset``; returns (record, offset after it)."""
        try:
            (
                seq, ts_cs, uptime, queue, routes, neigh_count, battery_cv,
                tx_frames, tx_airtime_ms, retx, drops, duty_permille,
                originated, delivered, forwarded, n_neighbors,
            ) = _STATUS_STRUCT.unpack_from(raw, offset)
        except struct.error as exc:
            raise DecodeError(
                f"status record header truncated ({len(raw) - offset} bytes)"
            ) from exc
        start = offset + STATUS_HEADER_SIZE
        end = start + n_neighbors * NEIGHBOR_SIZE
        if len(raw) < end:
            raise DecodeError("status record neighbor list truncated")
        neighbors = []
        for position in range(start, end, NEIGHBOR_SIZE):
            address, rssi_tenths, snr_tenths, heard = _NEIGHBOR_STRUCT.unpack_from(raw, position)
            neighbors.append(
                NeighborObservation(address, rssi_tenths / 10.0, snr_tenths / 10.0, heard)
            )
        record = cls(
            node, seq, ts_cs / 100.0, float(uptime), queue, routes, neigh_count,
            battery_cv / 100.0, tx_frames, tx_airtime_ms / 1000.0, retx, drops,
            duty_permille / 1000.0, originated, delivered, forwarded, tuple(neighbors),
        )
        return record, end


#: ``tuple.__new__``, typed for building a packet record from its fields.
_new_record = cast(Callable[[Type[PacketRecord], Tuple[Any, ...]], PacketRecord], tuple.__new__)


def encode_packed_records(
    packet_records: Sequence[PacketRecord], status_records: Sequence[StatusRecord]
) -> bytes:
    """The packed records a binary batch ends in.

    The binary codec (``BinaryCodec.encode``) follows its header with the
    packet records, then the status records, no padding: what
    :func:`decode_packed_records` reads back.  Raises
    :class:`~repro.errors.EncodeError` when a count overflows its header
    field, and ``struct.error`` when a field does not fit its layout.
    """
    if len(packet_records) > 0xFFFF or len(status_records) > 0xFF:
        raise EncodeError("too many records for one binary batch")
    return b"".join([
        *map(PacketRecord.to_binary, packet_records),
        *map(StatusRecord.to_binary, status_records),
    ])


def decode_packed_records(
    raw: bytes, offset: int, node: int, n_packets: int, n_status: int
) -> Tuple[Tuple[PacketRecord, ...], Tuple[StatusRecord, ...]]:
    """The packed records that fill ``raw`` from ``offset`` to its end.

    A binary batch (``BinaryCodec.decode``) ends in ``n_packets`` packet
    records then ``n_status`` status records.  The packet records are
    read in one ``iter_unpack`` pass and built with ``tuple.__new__``,
    which gives the positional constructor's record without its
    Python-level call.
    """
    end = offset + n_packets * PACKET_SIZE
    if len(raw) < end:
        raise DecodeError("binary batch packet records truncated")
    new, incoming, outgoing = _new_record, Direction.IN, Direction.OUT
    packets = tuple([
        new(PacketRecord, (
            node, seq, ts_cs / 100.0, outgoing, src, dst, next_hop, prev_hop, ptype,
            packet_id, size_bytes, None, None, airtime_ms / 1000.0, attempt,
        ))
        if flags & 1 else
        new(PacketRecord, (
            node, seq, ts_cs / 100.0, incoming, src, dst, next_hop, prev_hop, ptype,
            packet_id, size_bytes, rssi_tenths / 10.0, snr_tenths / 10.0, None, attempt,
        ))
        for (
            flags, seq, ts_cs, src, dst, next_hop, prev_hop, ptype, packet_id, size_bytes,
            rssi_tenths, snr_tenths, airtime_ms, attempt,
        ) in _PACKET_STRUCT.iter_unpack(raw[offset:end])
    ])
    status: List[StatusRecord] = []
    status_at = StatusRecord.from_binary_at
    for _ in range(n_status):
        record, end = status_at(raw, end, node)
        status.append(record)
    if end != len(raw):
        raise DecodeError(f"{len(raw) - end} trailing bytes after binary batch")
    return packets, tuple(status)


@dataclass(frozen=True)
class RecordBatch:
    """One client-to-server shipment."""

    node: int
    batch_seq: int
    sent_at: float
    packet_records: Tuple[PacketRecord, ...] = ()
    status_records: Tuple[StatusRecord, ...] = ()
    schema_version: int = SCHEMA_VERSION
    #: Packet records the client has dropped because its buffer
    #: overflowed, counted since it started (lets the server quantify
    #: observation loss).  Cumulative, so the server keeps each node's
    #: highest and a resent batch cannot count its drops twice.
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
        """The out-of-band wire format (what the paper's client POSTs).

        Written from the batch template and each record's
        ``to_json_text``; byte for byte ``json.dumps`` with compact
        separators of the document PROTOCOL.md section 2.1 describes.
        """
        network = self.network_id
        return (_BATCH_JSON % (
            self.schema_version,
            self.node,
            self.batch_seq,
            _decimal(self.sent_at, 3),
            self.dropped_records,
            ",".join(map(PacketRecord.to_json_text, self.packet_records)),
            ",".join(map(StatusRecord.to_json_text, self.status_records)),
            "" if network == DEFAULT_NETWORK_ID else ',"net":' + json.dumps(network),
        )).encode()

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
