"""Unit tests for the pluggable ingest transports and gap accounting."""

import time

import pytest

from repro.api import (
    Dashboard,
    HttpIngestClient,
    HttpIngestTransport,
    IngestTransport,
    MetricsStore,
    MonitoringHttpServer,
    MonitorServer,
    SequenceGapTracker,
    TelemetryGapAccountant,
    UdpIngestClient,
    UdpIngestTransport,
)
from repro.errors import ConfigurationError
from repro.monitor.codec import BinaryCodec
from repro.monitor.transport.base import MAX_TRACKED_MISSING, RESTART_THRESHOLD
from tests.unit.test_server import batch, packet_record


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestSequenceGapTracker:
    def test_in_order_stream(self):
        tracker = SequenceGapTracker()
        assert tracker.note(0) == "first"
        assert tracker.note(1) == "in_order"
        assert tracker.note(2) == "in_order"
        assert tracker.lost == 0 and tracker.gap_events == 0

    def test_gap_counts_every_missing_seq(self):
        tracker = SequenceGapTracker()
        tracker.note(0)
        assert tracker.note(4) == "gap"
        assert tracker.gap_events == 1
        assert tracker.lost == 3

    def test_late_arrival_fills_hole(self):
        tracker = SequenceGapTracker()
        tracker.note(0)
        tracker.note(3)
        assert tracker.note(1) == "late"
        assert tracker.lost == 1
        assert tracker.reordered == 1

    def test_duplicate_detected(self):
        tracker = SequenceGapTracker()
        tracker.note(5)
        assert tracker.note(5) == "duplicate"
        assert tracker.duplicates == 1
        # Received counts duplicates too.
        assert tracker.received == 2

    def test_deep_rewind_is_a_restart_not_loss(self):
        tracker = SequenceGapTracker()
        tracker.note(RESTART_THRESHOLD + 100)
        assert tracker.note(1) == "restart"
        assert tracker.restarts == 1
        assert tracker.lost == 0
        # The stream continues from the new position.
        assert tracker.note(2) == "in_order"

    def test_missing_set_is_bounded(self):
        tracker = SequenceGapTracker()
        tracker.note(0)
        width = MAX_TRACKED_MISSING + 500
        tracker.note(width + 1)
        assert tracker.lost == width
        assert len(tracker._missing) == MAX_TRACKED_MISSING
        # A late arrival older than the tracked window stays lost (it
        # reads as a duplicate, which slightly undercounts reorders —
        # the bounded-memory trade documented in the module).
        assert tracker.note(1) == "duplicate"
        assert tracker.lost == width

    def test_json_dict_shape(self):
        tracker = SequenceGapTracker()
        tracker.note(0)
        tracker.note(2)
        doc = tracker.to_json_dict()
        assert doc == {
            "received": 2, "gap_events": 1, "lost": 1,
            "duplicates": 0, "reordered": 0, "restarts": 0,
        }


class TestTelemetryGapAccountant:
    def test_streams_are_independent(self):
        accountant = TelemetryGapAccountant()
        accountant.note("a", 1, 0)
        accountant.note("b", 1, 0)
        assert accountant.note("a", 1, 1) == "in_order"
        assert accountant.note("b", 1, 5) == "gap"
        assert accountant.tracker("a", 1).lost == 0
        assert accountant.tracker("b", 1).lost == 4

    def test_lru_eviction_is_bounded(self):
        accountant = TelemetryGapAccountant(max_streams=2)
        accountant.note("a", 1, 0)
        accountant.note("b", 1, 0)
        accountant.note("a", 1, 1)  # refresh "a" so "b" is the LRU
        accountant.note("c", 1, 0)
        assert len(accountant) == 2
        assert accountant.evicted_streams == 1
        # "b" was forgotten; its tracker starts over.
        assert accountant.note("b", 1, 7) == "first"

    def test_json_dict_aggregates_and_names_worst_streams(self):
        accountant = TelemetryGapAccountant()
        accountant.note("net", 3, 0)
        accountant.note("net", 3, 2)  # one lost
        accountant.note("net", 4, 0)
        accountant.note("net", 4, 1)  # clean stream
        doc = accountant.to_json_dict()
        assert doc["streams"] == 2
        assert doc["received"] == 4
        assert doc["lost"] == 1
        assert list(doc["worst_streams"]) == ["net/3"]


def udp_pair(server, **kwargs):
    transport = server.attach_transport(UdpIngestTransport(server, **kwargs))
    return transport


class TestUdpIngestTransport:
    def test_handle_datagram_ingests_records(self):
        server = MonitorServer()
        transport = udp_pair(server)
        raw = BinaryCodec().encode(batch(packets=[packet_record()]))
        assert transport.handle_datagram(raw)
        assert server.store.packet_record_count() == 1
        assert transport.batches_submitted == 1
        shard = server.registry.get("default")
        assert shard is not None and shard.datagram_batches == 1

    @pytest.mark.parametrize(
        "raw",
        [
            b"",                                         # empty
            b"\x00" * 5,                                 # truncated header
            b"\xff" * 64,                                # bad magic
            BinaryCodec().encode(batch())[:-1],          # truncated records
            BinaryCodec().encode(batch()) + b"\x00",     # trailing garbage
        ],
        ids=["empty", "truncated-header", "bad-magic", "truncated", "trailing"],
    )
    def test_malformed_datagrams_counted_never_raised(self, raw):
        server = MonitorServer()
        transport = udp_pair(server)
        assert transport.handle_datagram(raw) is False
        assert transport.malformed_datagrams == 1
        assert transport.batches_submitted == 0
        assert server.store.packet_record_count() == 0

    def test_gap_accounting_over_datagrams(self):
        server = MonitorServer()
        transport = udp_pair(server)
        codec = BinaryCodec()
        transport.handle_datagram(codec.encode(batch(batch_seq=0)))
        transport.handle_datagram(codec.encode(batch(batch_seq=2)))  # 1 lost
        transport.handle_datagram(codec.encode(batch(batch_seq=2)))  # duplicate
        sequence = transport.stats_document()["sequence"]
        assert sequence["gap_events"] == 1
        assert sequence["lost"] == 1
        assert sequence["duplicates"] == 1
        assert "default/1" in sequence["worst_streams"]

    def test_live_socket_end_to_end(self):
        server = MonitorServer()
        transport = udp_pair(server)
        transport.start()
        try:
            assert transport.port != 0
            with UdpIngestClient(port=transport.port) as client:
                for seq in range(3):
                    size = client.send_batch(
                        batch(batch_seq=seq, packets=[packet_record(seq=seq)])
                    )
                    assert 0 < size < 200
                assert client.datagrams_sent == 3
            assert wait_until(lambda: transport.batches_submitted == 3)
            assert server.store.packet_record_count() == 3
            assert transport.stats_document()["sequence"]["lost"] == 0
        finally:
            transport.stop()

    def test_stop_is_idempotent(self):
        transport = UdpIngestTransport(MonitorServer())
        transport.start()
        transport.stop()
        transport.stop()

    def test_server_close_stops_attached_transports(self):
        server = MonitorServer()
        transport = udp_pair(server)
        transport.start()
        server.close()
        assert transport._socket is None
        assert transport._thread is None

    def test_transports_surface_in_self_metrics(self):
        server = MonitorServer()
        udp_pair(server)
        doc = server.self_metrics_document()
        assert doc["transports"]["udp"]["codec"] == "binary"
        assert doc["transports"]["udp"]["datagrams_received"] == 0
        assert server.transports and isinstance(server.transports[0], IngestTransport)


class TestUdpIngestClient:
    @pytest.mark.parametrize("port", [0, -1, 65536])
    def test_invalid_ports_refused(self, port):
        with pytest.raises(ConfigurationError, match="port"):
            UdpIngestClient(port=port)

    def test_counters_track_bytes(self):
        client = UdpIngestClient(port=65000)
        try:
            size = client.send_batch(batch())
            assert client.bytes_sent == size
        finally:
            client.close()


class TestHttpIngestTransport:
    def make(self):
        store = MetricsStore()
        server = MonitorServer(store=store)
        dashboard = Dashboard(store, report_interval_s=60.0)
        http_server = MonitoringHttpServer(server, dashboard, port=0)
        return server, server.attach_transport(HttpIngestTransport(http_server))

    def test_start_stop_idempotent(self):
        _, transport = self.make()
        transport.start()
        transport.start()
        url = transport.url
        assert url.startswith("http://")
        transport.stop()
        transport.stop()

    def test_stats_document(self):
        _, transport = self.make()
        doc = transport.stats_document()
        assert doc["transport"] == "http"
        assert doc["running"] is False


class TestUdpLifecycle:
    def test_stop_before_start_is_safe(self):
        transport = UdpIngestTransport(MonitorServer())
        transport.stop()
        transport.stop()

    def test_stop_joins_receiver_thread(self):
        # The receiver may be blocked in recvfrom; stop() must wake it
        # (self-datagram, then socket close) and join it within the
        # timeout — a leaked thread would keep the port bound.
        transport = UdpIngestTransport(MonitorServer())
        transport.start()
        thread = transport._thread
        assert thread is not None and thread.is_alive()
        transport.stop()
        assert not thread.is_alive()
        assert transport._thread is None and transport._socket is None

    def test_restart_after_stop(self):
        server = MonitorServer()
        transport = UdpIngestTransport(server)
        transport.start()
        transport.stop()
        transport.start()
        try:
            with UdpIngestClient(port=transport.port) as client:
                client.send_batch(batch(batch_seq=0, packets=[packet_record()]))
            assert wait_until(lambda: transport.batches_submitted == 1)
        finally:
            transport.stop()
