"""Unit tests for the mesh packet codec."""

import pytest

from repro.errors import DecodeError, EncodeError
from repro.mesh.addressing import BROADCAST
from repro.mesh.packet import (
    AckPayload,
    FLAG_ACK_REQUESTED,
    FLAG_FRAGMENT,
    HelloPayload,
    HEADER_SIZE,
    MAX_PAYLOAD,
    Packet,
    PacketType,
    RoutePayload,
    RouteVectorEntry,
    crc16_ccitt,
)


def sample_packet(**overrides):
    fields = dict(
        dst=9,
        src=1,
        ptype=PacketType.DATA,
        packet_id=1234,
        payload=b"hello mesh",
        next_hop=5,
        prev_hop=1,
        ttl=7,
        flags=FLAG_ACK_REQUESTED | FLAG_FRAGMENT,
    )
    fields.update(overrides)
    return Packet(**fields)


class TestCrc:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_empty(self):
        assert crc16_ccitt(b"") == 0xFFFF


class TestRoundTrip:
    def test_encode_decode_preserves_all_fields(self):
        packet = sample_packet()
        decoded = Packet.decode(packet.encode())
        assert decoded == packet

    def test_empty_payload(self):
        packet = sample_packet(payload=b"")
        assert Packet.decode(packet.encode()) == packet

    def test_max_payload(self):
        packet = sample_packet(payload=b"x" * MAX_PAYLOAD)
        assert Packet.decode(packet.encode()) == packet
        assert packet.wire_size == 255

    def test_wire_size_matches_encoding(self):
        packet = sample_packet()
        assert len(packet.encode()) == packet.wire_size

    @pytest.mark.parametrize("ptype", list(PacketType))
    def test_all_types_round_trip(self, ptype):
        packet = sample_packet(ptype=ptype, flags=0)
        assert Packet.decode(packet.encode()).ptype == ptype


class TestValidation:
    def test_oversized_payload_rejected(self):
        with pytest.raises(EncodeError):
            sample_packet(payload=b"x" * (MAX_PAYLOAD + 1))

    def test_address_out_of_range_rejected(self):
        with pytest.raises(EncodeError):
            sample_packet(dst=0x10000)

    def test_ttl_out_of_range_rejected(self):
        with pytest.raises(EncodeError):
            sample_packet(ttl=300)

    def test_truncated_frame_rejected(self):
        raw = sample_packet().encode()
        with pytest.raises(DecodeError):
            Packet.decode(raw[:HEADER_SIZE - 1])

    def test_corrupted_crc_rejected(self):
        raw = bytearray(sample_packet().encode())
        raw[-1] ^= 0xFF
        with pytest.raises(DecodeError):
            Packet.decode(bytes(raw))

    def test_corrupted_body_rejected(self):
        raw = bytearray(sample_packet().encode())
        raw[HEADER_SIZE] ^= 0xFF
        with pytest.raises(DecodeError):
            Packet.decode(bytes(raw))

    def test_length_field_mismatch_rejected(self):
        raw = sample_packet().encode()
        with pytest.raises(DecodeError):
            Packet.decode(raw + b"\x00")

    def test_unknown_type_rejected(self):
        packet = sample_packet(flags=0)
        raw = bytearray(packet.encode())
        raw[8] = 0xEE  # type byte
        # Fix the CRC so only the type is wrong.
        body = bytes(raw[:-2])
        import struct
        raw[-2:] = struct.pack("!H", crc16_ccitt(body))
        with pytest.raises(DecodeError):
            Packet.decode(bytes(raw))


class TestHopAndFlags:
    def test_hop_rewrites_link_fields_and_decrements_ttl(self):
        packet = sample_packet(ttl=5)
        hopped = packet.hop(next_hop=7, prev_hop=5)
        assert hopped.next_hop == 7 and hopped.prev_hop == 5
        assert hopped.ttl == 4
        assert hopped.dst == packet.dst and hopped.src == packet.src
        assert hopped.packet_id == packet.packet_id

    def test_wants_ack_flag(self):
        assert sample_packet(flags=FLAG_ACK_REQUESTED).wants_ack
        assert not sample_packet(flags=0).wants_ack

    def test_is_fragment_flag(self):
        assert sample_packet(flags=FLAG_FRAGMENT).is_fragment
        assert not sample_packet(flags=0).is_fragment

    def test_key_is_origin_scoped(self):
        assert sample_packet().key() == (1, 1234)


class TestControlPayloads:
    def test_hello_round_trip(self):
        payload = HelloPayload(uptime_s=3600, queue_depth=3, route_count=12, battery_centivolt=412)
        assert HelloPayload.decode(payload.encode()) == payload

    def test_hello_saturates_large_values(self):
        payload = HelloPayload(uptime_s=2**40, queue_depth=999, route_count=300, battery_centivolt=99999)
        decoded = HelloPayload.decode(payload.encode())
        assert decoded.uptime_s == 0xFFFFFFFF
        assert decoded.queue_depth == 0xFF

    def test_hello_bad_length_rejected(self):
        with pytest.raises(DecodeError):
            HelloPayload.decode(b"\x00\x01")

    def test_route_round_trip(self):
        payload = RoutePayload(entries=[RouteVectorEntry(2, 1), RouteVectorEntry(9, 3)])
        assert RoutePayload.decode(payload.encode()) == payload

    def test_route_empty_vector(self):
        assert RoutePayload.decode(RoutePayload(entries=[]).encode()).entries == []

    def test_route_count_mismatch_rejected(self):
        raw = RoutePayload(entries=[RouteVectorEntry(2, 1)]).encode()
        with pytest.raises(DecodeError):
            RoutePayload.decode(raw + b"\x00")

    def test_route_metric_overflow_rejected(self):
        with pytest.raises(EncodeError):
            RoutePayload(entries=[RouteVectorEntry(2, 300)]).encode()

    def test_route_too_many_entries_rejected(self):
        # The count is one byte; 256 entries must not reach struct.pack.
        entries = [RouteVectorEntry(i + 1, 1) for i in range(256)]
        with pytest.raises(EncodeError, match="256 entries"):
            RoutePayload(entries=entries).encode()

    def test_route_255_entries_encode(self):
        entries = [RouteVectorEntry(i + 1, 1) for i in range(255)]
        raw = RoutePayload(entries=entries).encode()
        assert raw[0] == 255 and RoutePayload.decode(raw).entries == entries

    @pytest.mark.parametrize("dst", [-1, 0x10000])
    def test_route_dst_out_of_range_rejected(self, dst):
        with pytest.raises(EncodeError, match="16 bits"):
            RoutePayload(entries=[RouteVectorEntry(dst, 1)]).encode()

    def test_route_max_entries_fits_one_frame(self):
        n = RoutePayload.max_entries_per_frame()
        payload = RoutePayload(entries=[RouteVectorEntry(i + 1, 1) for i in range(n)])
        assert len(payload.encode()) <= MAX_PAYLOAD

    def test_ack_round_trip(self):
        payload = AckPayload(acked_src=7, acked_packet_id=999)
        assert AckPayload.decode(payload.encode()) == payload

    def test_ack_bad_length_rejected(self):
        with pytest.raises(DecodeError):
            AckPayload.decode(b"\x01")


class TestBroadcast:
    def test_broadcast_constant(self):
        assert BROADCAST == 0xFFFF
        packet = sample_packet(dst=BROADCAST, next_hop=BROADCAST, flags=0)
        decoded = Packet.decode(packet.encode())
        assert decoded.dst == BROADCAST
