"""Oracles that hold the telemetry wire bytes fixed.

* The JSON writer (``RecordBatch.to_json_bytes`` and each record's
  ``to_json_text``) formats text straight from the record tuples.  Its
  oracle is ``json.dumps`` of the dict document the records'
  ``to_json_dict`` describe, with compact separators: the two must agree
  byte for byte for every record whose fields hold their annotated types,
  including the values where a text formatter goes wrong (``-0.0``,
  subnormals, values that round at the last kept digit, magnitudes where
  ``repr`` switches to exponent notation, ``NaN``, the infinities and
  ``None``).
* The binary decoder reads packet records in one ``struct.iter_unpack``
  pass.  Its reference is the per-record decoder below, which spells the
  layout out itself (32-bit seqs, ``batch_seq`` and ``dropped``) and
  reads each record with ``unpack_from`` at its offset: on drawn batches
  the two give the same batch, and on truncated input or trailing bytes
  the same :class:`DecodeError`.
"""

import json
import math
import struct
from dataclasses import replace
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError
from repro.monitor.codec import BinaryCodec
from repro.monitor.records import (
    Direction,
    NeighborObservation,
    PacketRecord,
    RecordBatch,
    StatusRecord,
    decode_packed_records,
)
from tests.property.test_codecs import network_ids, record_batches

# -- the JSON text oracle ------------------------------------------------------

#: Ints at the edges of the binary layouts, of JSON's exact range and of
#: machine words; the writer must print any int as ``json.dumps`` does.
BOUNDARY_INTS = [
    0, 1, -1, 0xFF, 0x100, 0xFFFF, 0x10000, -32768, 0xFFFFFFFF, 2**31 - 1,
    -(2**31), 2**53, 2**53 + 1, -(2**53), 2**63 - 1, 2**64, -(2**64), 10**30,
]

#: Floats where a fixed-point or ``repr`` shortcut goes wrong: signed
#: zero, subnormals, the smallest normal, ties at every kept digit,
#: magnitudes around the writer's fixed-point limit (1e11) and around
#: ``repr``'s switch to exponent notation (1e16, 1e-4), and the
#: non-finite values ``json.dumps`` spells ``NaN``/``Infinity``.
SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e-4, 1e-5, -1e-5, 0.05, 0.25, -0.25, 2.675, 0.0005, 0.0015, -0.0005,
    0.00005, 0.00015, 1.0005, 123.4565, 0.995, 9.9995, 99999.99995,
    1e11, -1e11, math.nextafter(1e11, 0.0), 99999999999.99995, 1e12 + 0.0005,
    123456789012.3456, 1e15 + 0.3, 1e16, 1.5e16, 1e22, 1e300, -1e300,
    1.7976931348623157e308, math.nan, -math.nan, math.inf, -math.inf,
]

#: Values on a tie at 1-5 decimals: ``round`` and the fixed-point text
#: both decide them from the exact binary value.
ties = st.builds(
    lambda whole, digits: (whole + 0.5) / 10**digits,
    st.integers(-(10**12), 10**12),
    st.integers(1, 5),
)

ints = st.one_of(st.integers(), st.sampled_from(BOUNDARY_INTS))
floats = st.one_of(
    st.floats(),
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from(SPECIAL_FLOATS),
    ties,
    # A float field holding an int, as the numeric tower allows.
    st.integers(-(10**20), 10**20),
)
optional_floats = st.one_of(st.none(), floats)


@st.composite
def any_packet_records(draw):
    return PacketRecord(
        draw(ints), draw(ints), draw(floats), draw(st.sampled_from(list(Direction))),
        draw(ints), draw(ints), draw(ints), draw(ints), draw(ints), draw(ints), draw(ints),
        draw(optional_floats), draw(optional_floats), draw(optional_floats), draw(ints),
    )


any_neighbors = st.builds(NeighborObservation, ints, floats, floats, ints)


@st.composite
def any_status_records(draw):
    return StatusRecord(
        draw(ints), draw(ints), draw(floats), draw(floats), draw(ints), draw(ints),
        draw(ints), draw(floats), draw(ints), draw(floats), draw(ints), draw(ints),
        draw(floats), draw(ints), draw(ints), draw(ints),
        tuple(draw(st.lists(any_neighbors, max_size=4))),
    )


@st.composite
def any_batches(draw):
    return RecordBatch(
        node=draw(ints),
        batch_seq=draw(ints),
        sent_at=draw(floats),
        packet_records=tuple(draw(st.lists(any_packet_records(), max_size=6))),
        status_records=tuple(draw(st.lists(any_status_records(), max_size=2))),
        dropped_records=draw(ints),
        network_id=draw(network_ids),
    )


def oracle_json(batch):
    """``json.dumps`` of the batch's dict document, compact separators."""
    document = {
        "v": batch.schema_version,
        "node": batch.node,
        "batch_seq": batch.batch_seq,
        "sent_at": round(batch.sent_at, 3),
        "dropped": batch.dropped_records,
        "packets": [record.to_json_dict() for record in batch.packet_records],
        "status": [record.to_json_dict() for record in batch.status_records],
    }
    if batch.network_id != "default":
        document["net"] = batch.network_id
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def compact(document):
    return json.dumps(document, separators=(",", ":"))


class TestJsonTextOracle:
    @given(any_packet_records())
    @settings(max_examples=500)
    def test_packet_record_text_is_json_dumps(self, record):
        assert record.to_json_text() == compact(record.to_json_dict())

    @given(any_status_records())
    @settings(max_examples=300)
    def test_status_record_text_is_json_dumps(self, record):
        assert record.to_json_text() == compact(record.to_json_dict())

    @given(any_batches())
    @settings(max_examples=300)
    def test_batch_bytes_are_json_dumps(self, batch):
        assert batch.to_json_bytes() == oracle_json(batch)

    @given(record_batches())
    @settings(max_examples=100)
    def test_wire_grid_batches_are_json_dumps(self, batch):
        # The records a client captures: finite, in range, every field
        # of its annotated type.
        assert batch.to_json_bytes() == oracle_json(batch)

    @pytest.mark.parametrize("value", SPECIAL_FLOATS + BOUNDARY_INTS, ids=repr)
    def test_every_special_value_in_every_float_slot(self, value):
        packet_in = PacketRecord(1, 2, value, Direction.IN, 3, 4, 5, 6, 7, 8, 9, value, value)
        packet_out = PacketRecord(
            1, 2, value, Direction.OUT, 3, 4, 5, 6, 7, 8, 9, airtime_s=value, attempt=2
        )
        status = StatusRecord(
            1, 2, value, value, 3, 4, 5, value, 6, value, 7, 8, value, 9, 10, 11,
            (NeighborObservation(1, value, value, 2),),
        )
        for network_id in ("default", "campus-a"):
            batch = RecordBatch(
                1, 2, value, (packet_in, packet_out), (status,), network_id=network_id
            )
            assert batch.to_json_bytes() == oracle_json(batch)

    def test_none_rssi_and_snr_are_null(self):
        record = PacketRecord(1, 2, 3.0, Direction.IN, 3, 4, 5, 6, 7, 8, 9, None, None)
        assert record.to_json_text().endswith('"rssi":null,"snr":null}')
        assert record.to_json_text() == compact(record.to_json_dict())

    def test_non_finite_values_keep_json_dumps_spelling(self):
        record = PacketRecord(
            1, 2, math.nan, Direction.IN, 3, 4, 5, 6, 7, 8, 9, math.inf, -math.inf
        )
        assert '"ts":NaN' in record.to_json_text()
        assert record.to_json_text().endswith('"rssi":Infinity,"snr":-Infinity}')


# -- the binary decoder and its per-record reference --------------------------

#: The binary layout, spelled out here rather than read from the module
#: under test, so the oracle also pins it: header magic, version,
#: net_len, node, batch_seq, sent_at, dropped, n_packets, n_status; and
#: each packet record's flags, seq, timestamp, src, dst, next_hop,
#: prev_hop, ptype, packet_id, size, rssi, snr, airtime, attempt.
REFERENCE_HEADER = struct.Struct("!HBBHIIIHB")
REFERENCE_PACKET = struct.Struct("!BIIHHHHBHHhhHB")


def reference_packet_at(raw, offset, node):
    """Decode one packed packet record at ``offset``, field by field."""
    try:
        (
            flags, seq, ts_cs, src, dst, next_hop, prev_hop, ptype,
            packet_id, size_bytes, rssi_tenths, snr_tenths, airtime_ms, attempt,
        ) = REFERENCE_PACKET.unpack_from(raw, offset)
    except struct.error as exc:
        raise DecodeError(f"bad binary packet record of {len(raw) - offset} bytes") from exc
    if flags & 1:
        return PacketRecord(
            node, seq, ts_cs / 100.0, Direction.OUT, src, dst, next_hop, prev_hop,
            ptype, packet_id, size_bytes, None, None, airtime_ms / 1000.0, attempt,
        )
    return PacketRecord(
        node, seq, ts_cs / 100.0, Direction.IN, src, dst, next_hop, prev_hop,
        ptype, packet_id, size_bytes, rssi_tenths / 10.0, snr_tenths / 10.0, None, attempt,
    )


def reference_decode(raw, offset, node, n_packets, n_status):
    """The packed records at ``offset``, one ``unpack_from`` per packet record."""
    end = offset + n_packets * REFERENCE_PACKET.size
    if len(raw) < end:
        raise DecodeError("binary batch packet records truncated")
    packets = tuple(
        reference_packet_at(raw, position, node)
        for position in range(offset, end, REFERENCE_PACKET.size)
    )
    status: List[StatusRecord] = []
    for _ in range(n_status):
        record, end = StatusRecord.from_binary_at(raw, end, node)
        status.append(record)
    if end != len(raw):
        raise DecodeError(f"{len(raw) - end} trailing bytes after binary batch")
    return packets, tuple(status)


def reference_batch(raw):
    """A whole binary batch (header, network id, records), by the reference."""
    magic, version, net_len, node, batch_seq, sent_cs, dropped, n_packets, n_status = (
        REFERENCE_HEADER.unpack_from(raw)
    )
    assert (magic, version) == (0x4C54, 2)
    offset = REFERENCE_HEADER.size + net_len
    network = raw[REFERENCE_HEADER.size:offset].decode("ascii") or "default"
    packets, status = reference_decode(raw, offset, node, n_packets, n_status)
    return RecordBatch(
        node, batch_seq, sent_cs / 100.0, packets, status,
        dropped_records=dropped, network_id=network,
    )


def outcome(decode, *args):
    """("ok", result) or ("error", the DecodeError's message)."""
    try:
        return "ok", decode(*args)
    except DecodeError as exc:
        return "error", str(exc)


def assert_same_records(mine, theirs):
    assert mine == theirs
    for record, reference in zip(mine, theirs):
        assert type(record) is type(reference)
        assert hash(record) == hash(reference)
        assert [type(value) for value in record] == [type(value) for value in reference]


class TestPackedRecordDecoder:
    @given(record_batches())
    @settings(max_examples=200)
    def test_datagram_matches_reference(self, batch):
        raw = BinaryCodec().encode(batch)
        decoded = BinaryCodec().decode(raw)
        reference = reference_batch(raw)
        assert decoded == reference
        assert_same_records(decoded.packet_records, reference.packet_records)
        assert [r.seq for r in decoded.packet_records] == [r.seq for r in batch.packet_records]
        assert (decoded.batch_seq, decoded.dropped_records) == (
            batch.batch_seq, batch.dropped_records
        )

    @given(
        record_batches(),
        st.integers(min_value=0, max_value=2000),
        st.binary(max_size=40),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=300)
    def test_truncation_and_trailing_bytes_fail_alike(
        self, batch, cut, trailer, extra_packets, extra_status
    ):
        raw = BinaryCodec().encode(replace(batch, network_id="default"))
        body = (raw[:cut] if cut < len(raw) else raw) + trailer
        counts = (
            len(batch.packet_records) + extra_packets - 1,
            len(batch.status_records) + extra_status - 1,
        )
        n_packets, n_status = max(0, counts[0]), max(0, counts[1])
        args = (body, REFERENCE_HEADER.size, batch.node, n_packets, n_status)
        mine, theirs = outcome(decode_packed_records, *args), outcome(reference_decode, *args)
        assert mine[0] == theirs[0], (mine, theirs)
        if mine[0] == "error":
            assert mine[1] == theirs[1]
        else:
            assert_same_records(mine[1][0], theirs[1][0])
            assert mine[1][1] == theirs[1][1]

    def test_truncated_and_trailing_messages(self):
        record = PacketRecord(3, 1, 2.0, Direction.IN, 1, 2, 3, 4, 5, 6, 7, -100.0, 5.0)
        raw = BinaryCodec().encode(RecordBatch(3, 1, 2.0, (record,)))
        with pytest.raises(DecodeError, match="binary batch packet records truncated"):
            BinaryCodec().decode(raw[:-1])
        with pytest.raises(DecodeError, match="2 trailing bytes after binary batch"):
            BinaryCodec().decode(raw + b"\x00\x00")
