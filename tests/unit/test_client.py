"""Unit tests for the monitoring client."""

import pytest

from repro.errors import ConfigurationError
from repro.monitor.client import MonitorClient, MonitorClientConfig
from repro.monitor.uplink import Uplink


class FakeUplink(Uplink):
    """Controllable uplink: records batches, outcome is scripted."""

    def __init__(self, ok=True):
        super().__init__()
        self.batches = []
        self.ok = ok
        self.deferred = []

    def send(self, batch, on_result):
        self.batches.append(batch)
        self.stats.batches_submitted += 1
        self.deferred.append(on_result)
        if self.ok is not None:
            on_result(self.ok)
            self.deferred.pop()


@pytest.fixture
def mesh(small_mesh):
    return small_mesh


def make_client(world, node_addr=1, uplink=None, **config_overrides):
    # The first flush comes 30 s plus up to START_JITTER_S (5 s) in.
    config = MonitorClientConfig(report_interval_s=30.0, **config_overrides)
    uplink = uplink if uplink is not None else FakeUplink()
    client = MonitorClient(world.sim, world.nodes[node_addr], uplink, config)
    return client, uplink


class TestCapture:
    def test_records_in_and_out_packets(self, mesh):
        client, uplink = make_client(mesh)
        mesh.sim.run(until=mesh.sim.now + 60.0)
        assert client.stats.records_captured > 0
        directions = set()
        for batch in uplink.batches:
            for record in batch.packet_records:
                directions.add(record.direction.value)
        assert directions == {"in", "out"}

    def test_capture_filters(self, mesh):
        client, uplink = make_client(mesh, capture_in=False)
        mesh.sim.run(until=mesh.sim.now + 60.0)
        for batch in uplink.batches:
            for record in batch.packet_records:
                assert record.direction.value == "out"

    def test_record_seqs_are_contiguous(self, mesh):
        client, uplink = make_client(mesh)
        mesh.sim.run(until=mesh.sim.now + 120.0)
        seqs = [r.seq for batch in uplink.batches for r in batch.packet_records]
        assert seqs == sorted(seqs)
        assert seqs == list(range(len(seqs)))

    def test_buffer_overflow_drops_oldest_and_counts(self, mesh):
        client, uplink = make_client(mesh, max_buffer_records=5)
        mesh.sim.run(until=mesh.sim.now + 29.0)  # before the first flush
        if client.stats.records_captured > 5:
            assert client.stats.records_dropped == client.stats.records_captured - 5
            assert client.backlog == 5


class TestFlush:
    def test_periodic_flush_produces_batches(self, mesh):
        client, uplink = make_client(mesh)
        mesh.sim.run(until=mesh.sim.now + 100.0)
        assert client.stats.batches_sent >= 3
        assert client.stats.batches_acked == client.stats.batches_sent

    def test_batch_seq_increments(self, mesh):
        client, uplink = make_client(mesh)
        mesh.sim.run(until=mesh.sim.now + 100.0)
        seqs = [batch.batch_seq for batch in uplink.batches]
        assert seqs == list(range(len(seqs)))

    def test_status_record_attached(self, mesh):
        client, uplink = make_client(mesh)
        mesh.sim.run(until=mesh.sim.now + 40.0)
        assert uplink.batches
        assert len(uplink.batches[0].status_records) == 1
        status = uplink.batches[0].status_records[0]
        assert status.node == 1
        assert status.route_count == 8

    def test_status_carries_neighbor_observations(self, mesh):
        client, uplink = make_client(mesh)
        mesh.sim.run(until=mesh.sim.now + 40.0)
        status = uplink.batches[0].status_records[0]
        assert len(status.neighbors) == status.neighbor_count > 0

    def test_status_cadence_follows_every_n_flushes(self, mesh):
        client, uplink = make_client(mesh, status_every_n_flushes=2)
        mesh.sim.run(until=mesh.sim.now + 155.0)
        statuses = [len(batch.status_records) for batch in uplink.batches]
        assert statuses[:4] == [1, 0, 1, 0]

    def test_batch_size_cap_drains_backlog(self, mesh):
        client, uplink = make_client(mesh, max_records_per_batch=3)
        mesh.sim.run(until=mesh.sim.now + 150.0)
        assert all(len(batch.packet_records) <= 3 for batch in uplink.batches)


class TestRetry:
    def test_failed_batch_records_are_retried(self, mesh):
        uplink = FakeUplink(ok=False)
        client, _ = make_client(mesh, uplink=uplink)
        mesh.sim.run(until=mesh.sim.now + 35.0)
        assert client.stats.batches_failed >= 1
        first_failed = uplink.batches[0]
        uplink.ok = True
        mesh.sim.run(until=mesh.sim.now + 35.0)
        retried = uplink.batches[-1]
        # Same record seqs reappear under a new batch seq.
        assert retried.batch_seq > first_failed.batch_seq
        first_seqs = {r.seq for r in first_failed.packet_records}
        retried_seqs = {r.seq for r in retried.packet_records}
        assert first_seqs <= retried_seqs

    def test_flush_skipped_while_awaiting_result(self, mesh):
        uplink = FakeUplink(ok=None)  # never answers
        client, _ = make_client(mesh, uplink=uplink)
        mesh.sim.run(until=mesh.sim.now + 200.0)
        assert client.stats.batches_sent == 1

    def test_stop_halts_flushing(self, mesh):
        client, uplink = make_client(mesh)
        client.stop()
        mesh.sim.run(until=mesh.sim.now + 120.0)
        assert client.stats.batches_sent == 0

    def test_restart_empties_buffers_and_continues_seqs(self, mesh):
        uplink = FakeUplink(ok=None)  # the first batch stays in flight
        client, _ = make_client(mesh, uplink=uplink)
        mesh.sim.run(until=mesh.sim.now + 35.0)
        [in_flight] = uplink.batches
        mesh.sim.run(until=mesh.sim.now + 10.0)
        assert client.backlog > 0
        client.stop()
        client.restart()
        assert client.backlog == 0
        uplink.ok = True
        mesh.sim.run(until=mesh.sim.now + 35.0)
        rebooted = uplink.batches[1]
        assert rebooted.batch_seq > in_flight.batch_seq
        assert rebooted.packet_records[0].seq > in_flight.packet_records[-1].seq
        assert rebooted.status_records[0].seq > in_flight.status_records[-1].seq

    def test_drop_count_is_cumulative_across_failures_and_restarts(self, mesh):
        # Each batch carries every drop so far, so a resent batch repeats
        # a count the server already holds instead of adding to it.
        uplink = FakeUplink(ok=False)
        client, _ = make_client(mesh, uplink=uplink, max_buffer_records=2)
        mesh.sim.run(until=mesh.sim.now + 100.0)
        before_restart = len(uplink.batches)
        client.restart()
        uplink.ok = True
        mesh.sim.run(until=mesh.sim.now + 100.0)
        counts = [batch.dropped_records for batch in uplink.batches]
        assert counts == sorted(counts)
        assert 0 < counts[before_restart - 1] < counts[-1] <= client.stats.records_dropped

    def test_restart_of_a_running_client_keeps_one_flush_timer(self, mesh):
        # A brownout fails the node without stopping its client, and a
        # later recovery restarts a client whose timer still runs.
        client, uplink = make_client(mesh)
        mesh.sim.run(until=mesh.sim.now + 45.0)
        client.restart()
        sent = client.stats.batches_sent
        mesh.sim.run(until=mesh.sim.now + 295.0)
        # Every flush ships a status, so one batch per 30 s interval.
        assert client.stats.batches_sent - sent == 9

    def test_result_from_before_a_restart_is_ignored(self, mesh):
        uplink = FakeUplink(ok=None)  # results are delivered by hand
        client, _ = make_client(mesh, uplink=uplink)
        mesh.sim.run(until=mesh.sim.now + 35.0)
        stale = uplink.deferred.pop()
        client.stop()
        client.restart()
        mesh.sim.run(until=mesh.sim.now + 35.0)
        assert client.stats.batches_sent == 2
        backlog = client.backlog
        stale(True)
        # The restarted client still awaits its own batch and keeps its records.
        assert client.backlog == backlog
        assert client.stats.batches_acked == 0
        mesh.sim.run(until=mesh.sim.now + 35.0)
        assert client.stats.batches_sent == 2
        uplink.deferred.pop()(True)
        assert client.stats.batches_acked == 1

    def test_failed_node_stops_capturing(self, mesh):
        client, uplink = make_client(mesh, node_addr=5)
        mesh.sim.run(until=mesh.sim.now + 40.0)
        captured_before = client.stats.records_captured
        mesh.nodes[5].fail()
        mesh.sim.run(until=mesh.sim.now + 60.0)
        assert client.stats.records_captured == captured_before


class TestSampling:
    def test_sampling_reduces_capture(self, mesh):
        full, _ = make_client(mesh, node_addr=2, packet_sample_rate=1.0)
        sampled, _ = make_client(mesh, node_addr=3, packet_sample_rate=0.2)
        mesh.sim.run(until=mesh.sim.now + 300.0)
        assert sampled.stats.records_captured < full.stats.records_captured

    def test_sampling_is_consistent_across_observers(self, mesh):
        # Two clients with the same rate must agree per packet identity:
        # every (src, packet_id) captured by one and heard by the other is
        # also captured by the other.
        client_a, uplink_a = make_client(mesh, node_addr=2, packet_sample_rate=0.3)
        client_b, uplink_b = make_client(mesh, node_addr=5, packet_sample_rate=0.3)
        mesh.sim.run(until=mesh.sim.now + 400.0)
        # The deterministic property: the sampling predicate agrees between
        # the two clients for arbitrary packet identities.
        from repro.mesh.packet import Packet, PacketType
        for src in (1, 77, 1000):
            for pid in range(0, 2000, 37):
                packet = Packet(dst=1, src=src, ptype=PacketType.DATA,
                                packet_id=pid, payload=b"", ttl=1)
                assert client_a._sampled(packet) == client_b._sampled(packet)

    def test_sampling_rate_roughly_respected(self, mesh):
        client, _ = make_client(mesh, node_addr=2, packet_sample_rate=0.3)
        from repro.mesh.packet import Packet, PacketType
        sampled = sum(
            client._sampled(Packet(dst=1, src=src, ptype=PacketType.DATA,
                                   packet_id=pid, payload=b"", ttl=1))
            for src in range(1, 40)
            for pid in range(0, 1000, 13)
        )
        total = 39 * len(range(0, 1000, 13))
        assert 0.2 < sampled / total < 0.4


class TestConfig:
    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            MonitorClientConfig(report_interval_s=0)

    def test_bad_buffer_rejected(self):
        with pytest.raises(ConfigurationError):
            MonitorClientConfig(max_buffer_records=0)

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            MonitorClientConfig(packet_sample_rate=1.5)

    def test_bad_status_cadence_rejected(self):
        with pytest.raises(ConfigurationError):
            MonitorClientConfig(status_every_n_flushes=0)
