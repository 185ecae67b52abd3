"""Telemetry batch codecs: pluggable encodings for :class:`RecordBatch`.

The ingest tier separates *what* travels (a record batch) from *how it
is encoded* (a codec) and *how it arrives* (a transport, see
:mod:`repro.monitor.transport`).  Two codecs ship:

* :class:`JsonCodec` — the paper's out-of-band wire format, byte-for-byte
  identical to ``RecordBatch.to_json_bytes()`` /
  ``RecordBatch.from_json_bytes()``.  Self-describing and debuggable;
  also the slowest thing on the ingest hot path (BENCH_fleet.json).
* :class:`BinaryCodec` — the compact telemetry datagram format: one
  fixed big-endian header (magic / version / network id / node /
  batch_seq, network order like the mesh frame) followed by the packed
  per-record encodings already used by the in-band uplink.  Unlike the
  in-band format (which cannot afford to spend LoRa airtime on a
  network id and relies on the gateway bridge to attribute batches),
  the datagram format carries its ``network_id`` inline, so a single
  UDP socket can ingest a whole fleet.

Codecs are negotiated on ``POST /api/v1/networks/<id>/ingest`` via the
``Content-Type`` request header (:func:`codec_for_content_type`) and
selected by name on the UDP transport and the CLI
(:func:`resolve_codec`).  Absent or JSON content types keep the legacy
HTTP+JSON path byte-identical.

This module is also the **normative source of the telemetry wire
format**: the "Telemetry record wire format" section of ``PROTOCOL.md``
is generated from the ``struct`` layouts here by
:func:`render_protocol_telemetry_markdown`, and a staleness test
(mirroring the ``docs/API.md`` pin) fails whenever the document drifts
from the code.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import DecodeError, EncodeError
from repro.monitor.ingest import DEFAULT_NETWORK_ID, is_valid_network_id
from repro.monitor.records import (
    NEIGHBOR_FORMAT,
    PACKET_FORMAT,
    SCHEMA_VERSION,
    STATUS_HEADER_FORMAT,
    RecordBatch,
    decode_packed_records,
)

#: ``Content-Type`` of the JSON batch encoding (the paper's POST body).
JSON_CONTENT_TYPE = "application/json"

#: ``Content-Type`` of the binary telemetry datagram encoding.
BINARY_CONTENT_TYPE = "application/vnd.repro.telemetry+binary"

#: Magic of the telemetry datagram header: ``"LT"`` (LoRa Telemetry).
#: Distinct from the in-band batch magic ``0x4C4D`` (``"LM"``) so a
#: datagram accidentally fed to the in-band decoder (or vice versa) is
#: rejected instead of misparsed.
TELEMETRY_MAGIC = 0x4C54

#: Fixed telemetry datagram header (big-endian, like the mesh frame):
#: magic, version, net_len, node, batch_seq, sent_at (centiseconds),
#: dropped, n_packets, n_status.  ``net_len`` bytes of ASCII network id
#: follow the header (0 = the implicit ``default`` network), then the
#: packed records.
DATAGRAM_HEADER_FORMAT = "!HBBHHIHHB"
DATAGRAM_HEADER_SIZE = struct.calcsize(DATAGRAM_HEADER_FORMAT)

#: Longest network id the datagram format can carry (matches the
#: ``ingest`` module's network-id token).
MAX_NETWORK_ID_BYTES = 64


class Codec(ABC):
    """One way to turn a :class:`RecordBatch` into wire bytes and back."""

    #: Registry key (``--codec`` on the CLI, ``codec=`` in the API).
    name: str = ""
    #: HTTP ``Content-Type`` this codec is negotiated under.
    content_type: str = ""

    @abstractmethod
    def encode(self, batch: RecordBatch) -> bytes:
        """Wire bytes for ``batch``."""

    @abstractmethod
    def decode(self, raw: bytes) -> RecordBatch:
        """Parse wire bytes; raises :class:`DecodeError` on malformed input."""


class JsonCodec(Codec):
    """The out-of-band JSON encoding — byte-identical to the legacy path."""

    name = "json"
    content_type = JSON_CONTENT_TYPE

    def encode(self, batch: RecordBatch) -> bytes:
        return batch.to_json_bytes()

    def decode(self, raw: bytes) -> RecordBatch:
        return RecordBatch.from_json_bytes(raw)


class BinaryCodec(Codec):
    """The compact telemetry datagram encoding (fixed header + packed records).

    Loss-tolerant and stateless in the TinyTelemetry spirit: every
    datagram is self-contained — header, network id, records — so the
    server needs no per-connection state and a lost datagram loses only
    its own records (the per-(network, node) sequence-gap accounting in
    :mod:`repro.monitor.transport` quantifies exactly how many).
    """

    name = "binary"
    content_type = BINARY_CONTENT_TYPE

    def encode(self, batch: RecordBatch) -> bytes:
        if len(batch.packet_records) > 0xFFFF or len(batch.status_records) > 0xFF:
            raise EncodeError("too many records for a telemetry datagram")
        network = b"" if batch.network_id == DEFAULT_NETWORK_ID else batch.network_id.encode("ascii")
        if len(network) > MAX_NETWORK_ID_BYTES:
            raise EncodeError(f"network id {batch.network_id!r} too long for the datagram format")
        header = struct.pack(
            DATAGRAM_HEADER_FORMAT,
            TELEMETRY_MAGIC,
            batch.schema_version,
            len(network),
            batch.node,
            batch.batch_seq & 0xFFFF,
            max(0, min(0xFFFFFFFF, int(round(batch.sent_at * 100)))),
            max(0, min(0xFFFF, batch.dropped_records)),
            len(batch.packet_records),
            len(batch.status_records),
        )
        parts = [header, network]
        parts.extend(record.to_binary() for record in batch.packet_records)
        parts.extend(record.to_binary() for record in batch.status_records)
        return b"".join(parts)

    def decode(self, raw: bytes) -> RecordBatch:
        if len(raw) < DATAGRAM_HEADER_SIZE:
            raise DecodeError(f"telemetry datagram of {len(raw)} bytes is truncated")
        magic, version, net_len, node, batch_seq, sent_cs, dropped, n_packets, n_status = (
            struct.unpack(DATAGRAM_HEADER_FORMAT, raw[:DATAGRAM_HEADER_SIZE])
        )
        if magic != TELEMETRY_MAGIC:
            raise DecodeError(f"bad telemetry magic 0x{magic:04X}")
        if version != SCHEMA_VERSION:
            raise DecodeError(f"unsupported schema version {version}")
        offset = DATAGRAM_HEADER_SIZE
        if len(raw) < offset + net_len:
            raise DecodeError("telemetry datagram network id truncated")
        if net_len == 0:
            network_id = DEFAULT_NETWORK_ID
        else:
            try:
                network_id = raw[offset:offset + net_len].decode("ascii")
            except UnicodeDecodeError as exc:
                raise DecodeError("telemetry datagram network id is not ASCII") from exc
            if not is_valid_network_id(network_id):
                raise DecodeError(f"bad network id {network_id!r}")
        packets, status = decode_packed_records(
            raw, offset + net_len, node, n_packets, n_status, "telemetry datagram"
        )
        return RecordBatch(
            node=node,
            batch_seq=batch_seq,
            sent_at=sent_cs / 100.0,
            packet_records=packets,
            status_records=status,
            dropped_records=dropped,
            network_id=network_id,
        )


#: The codec registry, keyed by :attr:`Codec.name`.
CODECS: Dict[str, Codec] = {codec.name: codec for codec in (JsonCodec(), BinaryCodec())}

#: ``Content-Type`` -> codec, for HTTP negotiation.
_BY_CONTENT_TYPE: Dict[str, Codec] = {codec.content_type: codec for codec in CODECS.values()}


def resolve_codec(codec: Union[str, Codec]) -> Codec:
    """The codec instance for a registry name (identity for instances)."""
    if isinstance(codec, Codec):
        return codec
    try:
        return CODECS[codec]
    except KeyError:
        raise ValueError(
            f"unknown codec {codec!r}: expected one of {sorted(CODECS)}"
        ) from None


def codec_for_content_type(content_type: Optional[str]) -> Codec:
    """The codec negotiated by an HTTP ``Content-Type`` header.

    Parameters are stripped (``application/json; charset=utf-8``
    negotiates JSON); an absent or unrecognised content type falls back
    to JSON, which keeps every pre-codec client on the byte-identical
    legacy path.
    """
    if not content_type:
        return CODECS["json"]
    base = content_type.split(";", 1)[0].strip().lower()
    return _BY_CONTENT_TYPE.get(base, CODECS["json"])


# -- PROTOCOL.md generation ----------------------------------------------------
#
# The telemetry wire format documented in PROTOCOL.md is rendered from
# the very struct layouts the codecs pack with, so the document cannot
# drift from the code: change a format string and the staleness test
# demands the section be regenerated.

#: struct format char -> human-readable type name.
_TYPE_NAMES = {
    "B": "uint8",
    "H": "uint16",
    "I": "uint32",
    "h": "int16",
    "i": "int32",
}


@dataclass(frozen=True)
class FieldSpec:
    """One field of a packed struct layout."""

    name: str
    note: str = ""


@dataclass(frozen=True)
class StructLayout:
    """One packed binary layout: a struct format plus field semantics."""

    title: str
    struct_format: str
    fields: Tuple[FieldSpec, ...]
    trailer: str = ""

    def __post_init__(self) -> None:
        chars = self.struct_format.lstrip("!")
        if len(chars) != len(self.fields):
            raise ValueError(
                f"layout {self.title!r}: {len(chars)} format fields but "
                f"{len(self.fields)} field specs"
            )

    def rows(self) -> List[Tuple[int, int, str, FieldSpec]]:
        """(offset, size, type-name, field) per packed field."""
        rows: List[Tuple[int, int, str, FieldSpec]] = []
        offset = 0
        for char, field in zip(self.struct_format.lstrip("!"), self.fields):
            size = struct.calcsize("!" + char)
            rows.append((offset, size, _TYPE_NAMES[char], field))
            offset += size
        return rows

    @property
    def size(self) -> int:
        return struct.calcsize(self.struct_format)


def telemetry_layouts() -> Tuple[StructLayout, ...]:
    """Every packed telemetry layout, straight from the codec structs."""
    return (
        StructLayout(
            title="Telemetry datagram header (binary codec, UDP / negotiated HTTP)",
            struct_format=DATAGRAM_HEADER_FORMAT,
            fields=(
                FieldSpec("magic", f"`0x{TELEMETRY_MAGIC:04X}` (\"LT\")"),
                FieldSpec("version", f"schema version, currently {SCHEMA_VERSION}"),
                FieldSpec("net_len", "network-id length N; 0 = `default` network"),
                FieldSpec("node", "reporting node address"),
                FieldSpec("batch_seq", "client batch sequence (gap accounting key)"),
                FieldSpec("sent_at", "client send time, centiseconds"),
                FieldSpec("dropped", "client-side buffer-overflow count"),
                FieldSpec("n_packets", "packet-record count"),
                FieldSpec("n_status", "status-record count"),
            ),
            trailer=(
                "followed by N bytes of ASCII network id, then `n_packets` "
                "packet records and `n_status` status records, no padding. "
                "Each datagram is self-contained (stateless, loss-tolerant); "
                "the UDP transport counts per-(network, node) `batch_seq` "
                "gaps, duplicates and reorders."
            ),
        ),
        StructLayout(
            title="In-band batch header (mesh TELEMETRY frames)",
            struct_format=RecordBatch._BINARY_HEADER,
            fields=(
                FieldSpec("magic", '`0x4C4D` ("LM")'),
                FieldSpec("version", f"schema version, currently {SCHEMA_VERSION}"),
                FieldSpec("node", "reporting node address"),
                FieldSpec("batch_seq", "client batch sequence"),
                FieldSpec("sent_at", "client send time, centiseconds"),
                FieldSpec("dropped", "client-side buffer-overflow count"),
                FieldSpec("n_packets", "packet-record count"),
                FieldSpec("n_status", "status-record count"),
            ),
            trailer=(
                "followed by the packed records, no padding.  Spends no "
                "bytes on a network id — the gateway bridge attributes "
                "batches to its own network server-side."
            ),
        ),
        StructLayout(
            title="Packet record",
            struct_format=PACKET_FORMAT,
            fields=(
                FieldSpec("flags", "bit 0: direction, 1 = OUT"),
                FieldSpec("seq", "record sequence (dedup key with node)"),
                FieldSpec("timestamp", "observation time, centiseconds"),
                FieldSpec("src", "end-to-end source address"),
                FieldSpec("dst", "end-to-end destination address"),
                FieldSpec("next_hop", "link-layer recipient"),
                FieldSpec("prev_hop", "link-layer sender"),
                FieldSpec("ptype", "packet type"),
                FieldSpec("packet_id", "origin-assigned packet id"),
                FieldSpec("size_bytes", "frame size on the air"),
                FieldSpec("rssi", "dBm x 10 (IN records)"),
                FieldSpec("snr", "dB x 10 (IN records)"),
                FieldSpec("airtime", "milliseconds (OUT records)"),
                FieldSpec("attempt", "transmission attempt, 1 = first try"),
            ),
        ),
        StructLayout(
            title="Status record header",
            struct_format=STATUS_HEADER_FORMAT,
            fields=(
                FieldSpec("seq", "record sequence (dedup key with node)"),
                FieldSpec("timestamp", "snapshot time, centiseconds"),
                FieldSpec("uptime_s", "seconds since boot"),
                FieldSpec("queue_depth", ""),
                FieldSpec("route_count", ""),
                FieldSpec("neighbor_count", ""),
                FieldSpec("battery", "centivolts"),
                FieldSpec("tx_frames", ""),
                FieldSpec("tx_airtime", "milliseconds"),
                FieldSpec("retransmissions", ""),
                FieldSpec("drops", ""),
                FieldSpec("duty", "permille of the duty-cycle budget"),
                FieldSpec("originated", ""),
                FieldSpec("delivered", ""),
                FieldSpec("forwarded", ""),
                FieldSpec("n_neighbors", "neighbor-entry count"),
            ),
            trailer="followed by `n_neighbors` neighbor entries.",
        ),
        StructLayout(
            title="Neighbor entry",
            struct_format=NEIGHBOR_FORMAT,
            fields=(
                FieldSpec("address", "neighbor address"),
                FieldSpec("rssi", "EWMA, dBm x 10"),
                FieldSpec("snr", "EWMA, dB x 10"),
                FieldSpec("frames_heard", ""),
            ),
        ),
    )


#: Markers delimiting the generated block inside PROTOCOL.md.
PROTOCOL_BEGIN_MARK = "<!-- BEGIN GENERATED: telemetry-wire-format -->"
PROTOCOL_END_MARK = "<!-- END GENERATED: telemetry-wire-format -->"


def render_protocol_telemetry_markdown() -> str:
    """The generated "Telemetry record wire format" block of PROTOCOL.md.

    Includes the begin/end markers; everything between them is owned by
    this function.  Regenerate the file with::

        python -c "from repro.monitor.codec import pin_protocol_markdown; \\
                   pin_protocol_markdown('PROTOCOL.md')"
    """
    lines: List[str] = [
        PROTOCOL_BEGIN_MARK,
        "<!-- Generated from the struct layouts in repro.monitor.codec /",
        "     repro.monitor.records; edit those modules, not this block.",
        "     tests/unit/test_codec.py keeps the two in sync. -->",
        "",
        "All telemetry integers are big-endian (network order, `!` in",
        "`struct` notation), like the mesh frame.  Two codecs encode a",
        "record batch; HTTP ingest negotiates them via `Content-Type`,",
        "the UDP transport and the CLI select them by name:",
        "",
        "| codec | `Content-Type` | format |",
        "|---|---|---|",
        f"| `json` | `{JSON_CONTENT_TYPE}` | the out-of-band JSON document (see above) |",
        f"| `binary` | `{BINARY_CONTENT_TYPE}` | telemetry datagram: fixed header + packed records |",
        "",
        "An absent or unrecognised `Content-Type` falls back to `json`,",
        "which keeps pre-codec HTTP clients byte-identical.",
        "",
    ]
    for layout in telemetry_layouts():
        lines.append(f"#### {layout.title} — {layout.size} bytes, `{layout.struct_format}`")
        lines.append("")
        lines.append("| offset | size | type | field | notes |")
        lines.append("|-------:|-----:|------|-------|-------|")
        for offset, size, type_name, field in layout.rows():
            lines.append(
                f"| {offset} | {size} | {type_name} | `{field.name}` | {field.note} |"
            )
        lines.append("")
        if layout.trailer:
            lines.append(f"… {layout.trailer}")
            lines.append("")
    lines.append(PROTOCOL_END_MARK)
    return "\n".join(lines)


def replace_generated_section(document: str, rendered: Optional[str] = None) -> str:
    """``document`` with its generated block replaced by ``rendered``.

    Raises :class:`ValueError` when the markers are missing or
    malformed, so a truncated PROTOCOL.md fails loudly.
    """
    if rendered is None:
        rendered = render_protocol_telemetry_markdown()
    begin = document.find(PROTOCOL_BEGIN_MARK)
    end = document.find(PROTOCOL_END_MARK)
    if begin < 0 or end < begin:
        raise ValueError("PROTOCOL.md generated-section markers missing or out of order")
    return document[:begin] + rendered + document[end + len(PROTOCOL_END_MARK):]


def extract_generated_section(document: str) -> str:
    """The generated block currently in ``document`` (markers included)."""
    begin = document.find(PROTOCOL_BEGIN_MARK)
    end = document.find(PROTOCOL_END_MARK)
    if begin < 0 or end < begin:
        raise ValueError("PROTOCOL.md generated-section markers missing or out of order")
    return document[begin:end + len(PROTOCOL_END_MARK)]


def pin_protocol_markdown(path: str) -> None:
    """Regenerate the telemetry section of the PROTOCOL.md at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        document = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(replace_generated_section(document))
