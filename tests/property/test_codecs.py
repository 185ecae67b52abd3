"""Property-based tests: every codec round-trips for arbitrary inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError
from repro.mesh.packet import (
    AckPayload,
    HelloPayload,
    MAX_PAYLOAD,
    Packet,
    PacketType,
    RoutePayload,
    RouteVectorEntry,
)
from repro.mesh.transport import FRAGMENT_HEADER_SIZE, Fragment, segment_message
from repro.monitor.codec import BinaryCodec
from repro.monitor.records import (
    Direction,
    NeighborObservation,
    PacketRecord,
    RecordBatch,
    StatusRecord,
)

import pytest

addresses = st.integers(min_value=0, max_value=0xFFFF)
packet_ids = st.integers(min_value=0, max_value=0xFFFF)
bytes_payloads = st.binary(min_size=0, max_size=MAX_PAYLOAD)
#: Record seqs, ``batch_seq`` and ``dropped``: the full 32-bit range the
#: binary layout carries, its edges (and the old 16-bit wrap) drawn often.
uint32s = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0, 0xFFFF, 0x10000, 70_000, 2**31, 2**32 - 1]),
)


@st.composite
def packets(draw):
    return Packet(
        dst=draw(addresses),
        src=draw(addresses),
        ptype=draw(st.sampled_from(list(PacketType))),
        packet_id=draw(packet_ids),
        payload=draw(bytes_payloads),
        next_hop=draw(addresses),
        prev_hop=draw(addresses),
        ttl=draw(st.integers(min_value=0, max_value=255)),
        flags=draw(st.integers(min_value=0, max_value=255)),
    )


class TestPacketCodec:
    @given(packets())
    def test_round_trip(self, packet):
        assert Packet.decode(packet.encode()) == packet

    @given(packets())
    def test_wire_size_exact(self, packet):
        assert len(packet.encode()) == packet.wire_size <= 255

    @given(packets(), st.integers(min_value=0, max_value=270), st.integers(min_value=0, max_value=7))
    def test_single_bit_flip_never_decodes_silently_wrong(self, packet, byte_index, bit):
        raw = bytearray(packet.encode())
        if byte_index >= len(raw):
            return
        raw[byte_index] ^= 1 << bit
        try:
            decoded = Packet.decode(bytes(raw))
        except DecodeError:
            return  # rejected: good
        # CRC16 catches all single-bit errors, so decoding succeeding with
        # different content would be a codec bug.
        assert decoded == packet or bytes(raw) == packet.encode()


class TestControlPayloads:
    @given(
        st.integers(0, 2**32 - 1), st.integers(0, 255),
        st.integers(0, 255), st.integers(0, 0xFFFF),
    )
    def test_hello_round_trip(self, uptime, queue, routes, battery):
        payload = HelloPayload(uptime, queue, routes, battery)
        assert HelloPayload.decode(payload.encode()) == payload

    @given(st.lists(
        st.builds(RouteVectorEntry, dst=addresses, metric=st.integers(0, 255)),
        max_size=70,
    ))
    def test_route_round_trip(self, entries):
        payload = RoutePayload(entries=entries)
        assert RoutePayload.decode(payload.encode()) == payload

    @given(addresses, packet_ids)
    def test_ack_round_trip(self, src, packet_id):
        payload = AckPayload(src, packet_id)
        assert AckPayload.decode(payload.encode()) == payload


class TestSegmentation:
    @given(
        st.integers(0, 0xFFFF),
        st.binary(min_size=0, max_size=5000),
        st.integers(min_value=FRAGMENT_HEADER_SIZE + 1, max_value=MAX_PAYLOAD),
    )
    def test_segments_reassemble_to_original(self, msg_id, payload, mtu):
        fragments = segment_message(msg_id, payload, mtu)
        assert b"".join(f.data for f in fragments) == payload
        assert all(len(f.encode()) <= mtu for f in fragments)
        assert all(f.seg_total == len(fragments) for f in fragments)

    @given(st.binary(min_size=0, max_size=1000))
    def test_fragment_codec_round_trip(self, data):
        if len(data) == 0:
            fragment = Fragment(msg_id=1, seg_index=0, seg_total=1, data=data)
        else:
            fragment = Fragment(msg_id=1, seg_index=0, seg_total=2, data=data)
        assert Fragment.decode(fragment.encode()) == fragment


timestamps = st.floats(min_value=0.0, max_value=4e7, allow_nan=False)
rssis = st.floats(min_value=-160.0, max_value=20.0, allow_nan=False)
snrs = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


@st.composite
def packet_records(draw):
    direction = draw(st.sampled_from(list(Direction)))
    return PacketRecord(
        node=draw(st.integers(1, 0xFFFE)),
        seq=draw(uint32s),
        timestamp=draw(timestamps),
        direction=direction,
        src=draw(addresses),
        dst=draw(addresses),
        next_hop=draw(addresses),
        prev_hop=draw(addresses),
        ptype=draw(st.integers(0, 255)),
        packet_id=draw(packet_ids),
        size_bytes=draw(st.integers(0, 255)),
        rssi_dbm=draw(rssis) if direction is Direction.IN else None,
        snr_db=draw(snrs) if direction is Direction.IN else None,
        airtime_s=draw(st.floats(0.0, 60.0)) if direction is Direction.OUT else None,
        attempt=draw(st.integers(1, 255)),
    )


@st.composite
def status_records(draw):
    neighbors = draw(st.lists(
        st.builds(
            NeighborObservation,
            address=st.integers(1, 0xFFFE),
            rssi_dbm=rssis,
            snr_db=snrs,
            frames_heard=st.integers(0, 0xFFFF),
        ),
        max_size=10,
    ))
    return StatusRecord(
        node=draw(st.integers(1, 0xFFFE)),
        seq=draw(uint32s),
        timestamp=draw(timestamps),
        uptime_s=draw(st.floats(0, 4e9, allow_nan=False)),
        queue_depth=draw(st.integers(0, 255)),
        route_count=draw(st.integers(0, 255)),
        neighbor_count=len(neighbors),
        battery_v=draw(st.floats(0.0, 5.0, allow_nan=False)),
        tx_frames=draw(st.integers(0, 2**32 - 1)),
        tx_airtime_s=draw(st.floats(0, 1e6, allow_nan=False)),
        retransmissions=draw(st.integers(0, 0xFFFF)),
        drops=draw(st.integers(0, 0xFFFF)),
        duty_utilisation=draw(st.floats(0.0, 10.0, allow_nan=False)),
        originated=draw(st.integers(0, 2**32 - 1)),
        delivered=draw(st.integers(0, 2**32 - 1)),
        forwarded=draw(st.integers(0, 2**32 - 1)),
        neighbors=tuple(neighbors),
    )


class TestRecordCodecs:
    @given(packet_records())
    @settings(max_examples=200)
    def test_packet_record_json_round_trip_preserves_identity(self, record):
        decoded = PacketRecord.from_json_dict(record.to_json_dict())
        assert decoded.seq == record.seq
        assert decoded.direction == record.direction
        assert decoded.packet_id == record.packet_id
        assert decoded.timestamp == pytest.approx(record.timestamp, abs=0.002)

    @given(packet_records())
    @settings(max_examples=200)
    def test_packet_record_binary_round_trip_within_quantisation(self, record):
        batch = RecordBatch(node=record.node, batch_seq=0, sent_at=0.0, packet_records=(record,))
        (decoded,) = BinaryCodec().decode(BinaryCodec().encode(batch)).packet_records
        assert decoded.seq == record.seq
        assert decoded.direction == record.direction
        assert decoded.timestamp == pytest.approx(record.timestamp, abs=0.011)
        if record.direction is Direction.IN:
            assert decoded.rssi_dbm == pytest.approx(record.rssi_dbm, abs=0.051)
            assert decoded.snr_db == pytest.approx(record.snr_db, abs=0.051)

    @given(status_records())
    @settings(max_examples=100)
    def test_status_record_binary_round_trip(self, record):
        decoded, consumed = StatusRecord.from_binary_at(record.to_binary(), 0, node=record.node)
        assert consumed == len(record.to_binary())
        assert decoded.seq == record.seq
        assert len(decoded.neighbors) == len(record.neighbors)
        for mine, theirs in zip(record.neighbors, decoded.neighbors):
            assert theirs.address == mine.address
            assert theirs.rssi_dbm == pytest.approx(mine.rssi_dbm, abs=0.051)

    @given(
        st.lists(packet_records(), max_size=20),
        st.lists(status_records(), max_size=3),
        st.integers(1, 0xFFFE),
    )
    @settings(max_examples=50)
    def test_batch_round_trips_both_encodings(self, packets, statuses, node):
        # Records in a batch must belong to the batch's node.
        packets = tuple(r._replace(node=node) for r in packets)
        statuses = tuple(r._replace(node=node) for r in statuses)
        batch = RecordBatch(
            node=node, batch_seq=1, sent_at=10.0,
            packet_records=packets, status_records=statuses,
        )
        from_json = RecordBatch.from_json_bytes(batch.to_json_bytes())
        from_binary = BinaryCodec().decode(BinaryCodec().encode(batch))
        assert from_json.record_count == batch.record_count
        assert from_binary.record_count == batch.record_count
        assert [r.seq for r in from_binary.packet_records] == [r.seq for r in packets]
        assert [r.seq for r in from_json.packet_records] == [r.seq for r in packets]
        assert [r.seq for r in from_binary.status_records] == [r.seq for r in statuses]


# Valid ids: 1-64 chars of [A-Za-z0-9_.-], starting alphanumeric.
network_ids = st.one_of(
    st.just("default"),
    st.builds(
        lambda head, tail: head + tail,
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=1),
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.", max_size=63),
    ),
)


@st.composite
def record_batches(draw):
    from dataclasses import replace
    node = draw(st.integers(1, 0xFFFE))
    packets = tuple(
        r._replace(node=node) for r in draw(st.lists(packet_records(), max_size=10))
    )
    statuses = tuple(
        r._replace(node=node) for r in draw(st.lists(status_records(), max_size=2))
    )
    batch = RecordBatch(
        node=node,
        batch_seq=draw(uint32s),
        sent_at=draw(timestamps),
        packet_records=packets,
        status_records=statuses,
        dropped_records=draw(uint32s),
    )
    return replace(batch, network_id=draw(network_ids))


class TestDatagramCodec:
    """The binary codec's batch framing (in-band, UDP and negotiated HTTP)."""

    def codec(self):
        return BinaryCodec()

    @given(record_batches())
    @settings(max_examples=100)
    def test_round_trip_preserves_identity(self, batch):
        codec = self.codec()
        decoded = codec.decode(codec.encode(batch))
        assert decoded.node == batch.node
        assert decoded.batch_seq == batch.batch_seq
        assert decoded.network_id == batch.network_id
        assert decoded.dropped_records == batch.dropped_records
        assert decoded.record_count == batch.record_count
        assert [r.seq for r in decoded.packet_records] == [
            r.seq for r in batch.packet_records
        ]
        for mine, theirs in zip(batch.packet_records, decoded.packet_records):
            assert theirs.direction == mine.direction
            assert theirs.timestamp == pytest.approx(mine.timestamp, abs=0.011)
            if mine.direction is Direction.IN:
                assert theirs.rssi_dbm == pytest.approx(mine.rssi_dbm, abs=0.051)
                assert theirs.snr_db == pytest.approx(mine.snr_db, abs=0.051)

    @given(record_batches())
    @settings(max_examples=100)
    def test_re_encode_is_stable(self, batch):
        # Quantisation happens exactly once: encode(decode(encode(b)))
        # is byte-identical to encode(b), so relays can transcode
        # without drift.
        codec = self.codec()
        first = codec.encode(batch)
        assert codec.encode(codec.decode(first)) == first

    @given(record_batches(), st.integers(min_value=0, max_value=2000))
    @settings(max_examples=100)
    def test_truncation_never_escapes_decode_error(self, batch, cut):
        codec = self.codec()
        raw = codec.encode(batch)
        if cut >= len(raw):
            return
        with pytest.raises(DecodeError):
            codec.decode(raw[:cut])

    @given(
        record_batches(),
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=200)
    def test_bit_flips_reject_or_reencode_cleanly(self, batch, byte_index, bit):
        # A UDP socket is an open door: whatever arrives must either be
        # rejected with DecodeError or decode into a batch the codec can
        # re-encode — no other exception may escape, ever.  The result
        # may differ from the flipped bytes (a flipped direction flag
        # normalises away fields the other direction does not carry),
        # but normalisation must converge after one round trip.
        codec = self.codec()
        raw = bytearray(codec.encode(batch))
        if byte_index >= len(raw):
            return
        raw[byte_index] ^= 1 << bit
        try:
            decoded = codec.decode(bytes(raw))
        except DecodeError:
            return  # rejected: good
        normalised = codec.encode(decoded)
        assert codec.encode(codec.decode(normalised)) == normalised
