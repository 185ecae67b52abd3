"""Unit tests for the telemetry batch codecs and the PROTOCOL.md pin."""

import re
from pathlib import Path

import pytest

from repro.api import (
    BinaryCodec,
    Codec,
    Direction,
    JsonCodec,
    PacketRecord,
    RecordBatch,
    codec_for_content_type,
    resolve_codec,
)
from repro.errors import DecodeError, EncodeError
from repro.monitor.codec import (
    BINARY_CONTENT_TYPE,
    BATCH_HEADER_SIZE,
    JSON_CONTENT_TYPE,
    extract_generated_section,
    render_protocol_telemetry_markdown,
    replace_generated_section,
    telemetry_layouts,
)
from tests.unit.test_server import batch, packet_record, status_record

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_resolve_by_name(self):
        assert isinstance(resolve_codec("json"), JsonCodec)
        assert isinstance(resolve_codec("binary"), BinaryCodec)

    def test_resolve_is_identity_for_instances(self):
        codec = BinaryCodec()
        assert resolve_codec(codec) is codec

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown codec"):
            resolve_codec("protobuf")

    def test_codec_is_abstract(self):
        with pytest.raises(TypeError):
            Codec()  # type: ignore[abstract]


class TestContentTypeNegotiation:
    def test_absent_means_json(self):
        assert codec_for_content_type(None).name == "json"
        assert codec_for_content_type("").name == "json"

    def test_json_types(self):
        assert codec_for_content_type(JSON_CONTENT_TYPE).name == "json"
        assert codec_for_content_type("application/json; charset=utf-8").name == "json"
        assert codec_for_content_type("Application/JSON").name == "json"

    def test_binary_type(self):
        assert codec_for_content_type(BINARY_CONTENT_TYPE).name == "binary"

    def test_unrecognised_falls_back_to_json(self):
        # Pre-codec clients sent arbitrary or no content types; they must
        # keep hitting the byte-identical JSON path.
        assert codec_for_content_type("text/plain").name == "json"


class TestJsonCodec:
    def test_byte_identical_to_legacy_encoding(self):
        b = batch(packets=[packet_record()], status=[status_record()])
        assert JsonCodec().encode(b) == b.to_json_bytes()

    def test_decode_matches_legacy(self):
        b = batch(packets=[packet_record()])
        assert JsonCodec().decode(b.to_json_bytes()) == RecordBatch.from_json_bytes(
            b.to_json_bytes()
        )


class TestBinaryCodec:
    def codec(self):
        return BinaryCodec()

    def test_round_trip_preserves_identity(self):
        b = batch(node=7, batch_seq=42, packets=[packet_record(node=7, seq=s) for s in range(3)],
                  status=[status_record(node=7)], dropped=5)
        decoded = self.codec().decode(self.codec().encode(b))
        assert decoded.node == 7
        assert decoded.batch_seq == 42
        assert decoded.dropped_records == 5
        assert [r.seq for r in decoded.packet_records] == [0, 1, 2]
        assert len(decoded.status_records) == 1
        assert decoded.network_id == "default"

    def test_network_id_carried_inline(self):
        import dataclasses
        b = dataclasses.replace(batch(), network_id="campus-a")
        assert self.codec().decode(self.codec().encode(b)).network_id == "campus-a"

    def test_default_network_spends_zero_bytes(self):
        import dataclasses
        plain = self.codec().encode(batch())
        stamped = self.codec().encode(dataclasses.replace(batch(), network_id="xy"))
        assert len(stamped) == len(plain) + 2

    def test_much_smaller_than_json(self):
        b = batch(packets=[packet_record(seq=s) for s in range(10)])
        assert len(self.codec().encode(b)) < len(b.to_json_bytes()) / 3

    def test_truncated_header_rejected(self):
        raw = self.codec().encode(batch())
        for cut in range(BATCH_HEADER_SIZE):
            with pytest.raises(DecodeError):
                self.codec().decode(raw[:cut])

    def test_bad_magic_rejected(self):
        raw = bytearray(self.codec().encode(batch()))
        raw[0] ^= 0xFF
        with pytest.raises(DecodeError, match="magic"):
            self.codec().decode(bytes(raw))

    def test_wrong_version_rejected(self):
        raw = bytearray(self.codec().encode(batch()))
        # Version 1 had 16-bit seqs: its records must not be misread.
        for version in (1, 99):
            raw[2] = version  # version byte
            with pytest.raises(DecodeError, match="version"):
                self.codec().decode(bytes(raw))

    @pytest.mark.parametrize("field", ["seq", "status_seq", "batch_seq", "dropped"])
    def test_values_past_32_bits_are_refused_not_wrapped(self, field):
        def with_value(value):
            return {
                "seq": batch(packets=[packet_record()._replace(seq=value)]),
                "status_seq": batch(status=[status_record()._replace(seq=value)]),
                "batch_seq": batch(batch_seq=value),
                "dropped": batch(dropped=value),
            }[field]

        largest = with_value(2**32 - 1)
        assert self.codec().decode(self.codec().encode(largest)) == largest
        # A wrapped seq would make the server take new records for replays.
        with pytest.raises(EncodeError, match="out of range"):
            self.codec().encode(with_value(2**32))

    def test_trailing_bytes_rejected(self):
        raw = self.codec().encode(batch())
        with pytest.raises(DecodeError, match="trailing"):
            self.codec().decode(raw + b"\x00")

    def test_truncated_records_rejected(self):
        raw = self.codec().encode(batch(packets=[packet_record()]))
        with pytest.raises(DecodeError):
            self.codec().decode(raw[:-3])

    def test_bad_network_id_rejected(self):
        import dataclasses
        raw = bytearray(self.codec().encode(dataclasses.replace(batch(), network_id="ab")))
        raw[BATCH_HEADER_SIZE] = 0xFF  # non-ASCII first id byte
        with pytest.raises(DecodeError):
            self.codec().decode(bytes(raw))

    def test_oversized_network_id_refused_on_encode(self):
        import dataclasses
        b = dataclasses.replace(batch(), network_id="n" * 64)
        # 64 chars is the network-id maximum and still encodes...
        assert self.codec().decode(self.codec().encode(b)).network_id == "n" * 64
        with pytest.raises(EncodeError):
            # ...but the codec guards its own length byte anyway.
            object.__setattr__(b, "network_id", "n" * 300)
            self.codec().encode(b)


class TestProtocolRendering:
    def test_layout_tables_match_struct_sizes(self):
        for layout in telemetry_layouts():
            rows = layout.rows()
            assert rows[0][0] == 0, layout.title
            assert sum(size for _, size, _, _ in rows) == layout.size, layout.title

    def test_rendered_section_mentions_every_layout(self):
        rendered = render_protocol_telemetry_markdown()
        for layout in telemetry_layouts():
            assert layout.title in rendered
            assert f"`{layout.struct_format}`" in rendered

    def test_replace_round_trips(self):
        document = "before\n" + render_protocol_telemetry_markdown() + "\nafter\n"
        assert replace_generated_section(document) == document
        assert extract_generated_section(document) == render_protocol_telemetry_markdown()

    def test_missing_markers_fail_loudly(self):
        with pytest.raises(ValueError):
            replace_generated_section("no markers here")

    def test_protocol_md_json_example_is_the_encoders_text(self):
        on_disk = (REPO_ROOT / "PROTOCOL.md").read_text()
        section = on_disk[on_disk.index("### 2.1 "):on_disk.index("### 2.2 ")]
        (example,) = re.findall(r"```json\n(.*?)\n```", section, flags=re.DOTALL)
        record = PacketRecord(
            node=7, seq=42, timestamp=1234.56, direction=Direction.IN, src=3, dst=1,
            next_hop=7, prev_hop=3, ptype=3, packet_id=777, size_bytes=58,
            rssi_dbm=-112.5, snr_db=4.2,
        )
        assert example == record.to_json_text()
        batch = RecordBatch(node=7, batch_seq=0, sent_at=0.0, packet_records=(record,))
        assert example.encode() in batch.to_json_bytes()

    def test_protocol_md_in_sync_with_codec_module(self):
        on_disk = (REPO_ROOT / "PROTOCOL.md").read_text()
        assert extract_generated_section(on_disk) == render_protocol_telemetry_markdown(), (
            "PROTOCOL.md telemetry section is stale; regenerate with: "
            "PYTHONPATH=src python -c 'from repro.monitor.codec import "
            "pin_protocol_markdown; pin_protocol_markdown(\"PROTOCOL.md\")'"
        )
