"""Unit tests for the uplink transports."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.monitor.codec import BinaryCodec
from repro.monitor.records import RecordBatch
from repro.monitor.server import MonitorServer
from repro.monitor.uplink import (
    OOB_LATENCY_JITTER_S,
    OOB_LATENCY_MEAN_S,
    OOB_TIMEOUT_S,
    GatewayBridge,
    InBandUplink,
    OutOfBandUplink,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def make_batch(node=1, batch_seq=0):
    return RecordBatch(node=node, batch_seq=batch_seq, sent_at=0.0)


class TestOutOfBand:
    def test_lossless_uplink_delivers_and_acks(self):
        sim = Simulator()
        server = MonitorServer(clock=lambda: sim.now)
        uplink = OutOfBandUplink(sim, server, RngRegistry(1).stream("u"), loss_probability=0.0)
        outcomes = []
        uplink.send(make_batch(), outcomes.append)
        sim.run(until=5.0)
        assert outcomes == [True]
        assert server.stats.batches_ok == 1
        assert uplink.stats.batches_delivered == 1

    def test_latency_is_applied(self):
        sim = Simulator()
        server = MonitorServer()
        uplink = OutOfBandUplink(sim, server, RngRegistry(1).stream("u"))
        times = []
        uplink.send(make_batch(), lambda ok: times.append(sim.now))
        sim.run(until=10.0)
        # Request + response, each within the jitter of the mean.
        low = OOB_LATENCY_MEAN_S - OOB_LATENCY_JITTER_S
        high = OOB_LATENCY_MEAN_S + OOB_LATENCY_JITTER_S
        assert 2 * low <= times[0] <= 2 * high

    def test_total_loss_fails_after_timeout(self):
        sim = Simulator()
        server = MonitorServer()
        uplink = OutOfBandUplink(
            sim, server, RngRegistry(1).stream("u"), loss_probability=1.0,
        )
        times = []
        uplink.send(make_batch(), lambda ok: times.append((sim.now, ok)))
        sim.run(until=3 * OOB_TIMEOUT_S)
        assert times == [(OOB_TIMEOUT_S, False)]
        assert server.stats.batches_ok == 0
        assert uplink.stats.batches_lost == 1

    def test_partial_loss_statistics(self):
        sim = Simulator()
        server = MonitorServer()
        uplink = OutOfBandUplink(
            sim, server, RngRegistry(1).stream("u"), loss_probability=0.5,
        )
        outcomes = []
        for index in range(200):
            sim.call_at(index * 1.0, lambda i=index: uplink.send(make_batch(batch_seq=i), outcomes.append))
        sim.run(until=300.0)
        successes = sum(outcomes)
        # Request AND response must survive: (1-0.5)^2 = 25% expected.
        assert 25 < successes < 80

    def test_bytes_counted(self):
        sim = Simulator()
        server = MonitorServer()
        uplink = OutOfBandUplink(sim, server, RngRegistry(1).stream("u"))
        batch = make_batch()
        uplink.send(batch, lambda ok: None)
        assert uplink.stats.bytes_sent == len(batch.to_json_bytes())
        assert uplink.wire_size(batch) == len(batch.to_json_bytes())

    def test_invalid_loss_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            OutOfBandUplink(sim, MonitorServer(), RngRegistry(1).stream("u"), loss_probability=1.5)


class TestInBand:
    def test_rides_mesh_to_gateway(self, small_mesh):
        world = small_mesh
        server = MonitorServer(clock=lambda: world.sim.now)
        bridge = GatewayBridge(world.nodes[1], server)
        uplink = InBandUplink(world.nodes[9], gateway_address=1)
        from repro.monitor.records import Direction, PacketRecord
        record = PacketRecord(
            node=9, seq=0, timestamp=world.sim.now, direction=Direction.IN,
            src=2, dst=9, next_hop=9, prev_hop=2, ptype=3, packet_id=1,
            size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
        )
        batch = RecordBatch(
            node=9, batch_seq=0, sent_at=world.sim.now, packet_records=(record,)
        )
        outcomes = []
        uplink.send(batch, outcomes.append)
        world.sim.run(until=world.sim.now + 120.0)
        assert outcomes == [True]
        assert bridge.batches_bridged == 1
        assert server.store.packet_record_count(node=9) == 1

    def test_no_route_reports_failure(self, world):
        world.build(n_nodes=2, area_m=50.0)  # no warmup: no routes
        uplink = InBandUplink(world.nodes[2], gateway_address=1)
        outcomes = []
        uplink.send(make_batch(node=2), outcomes.append)
        assert outcomes == [False]
        assert uplink.stats.batches_lost == 1

    def test_gateway_cannot_be_self(self, small_mesh):
        with pytest.raises(ConfigurationError):
            InBandUplink(small_mesh.nodes[1], gateway_address=1)

    def test_wire_size_is_binary(self, small_mesh):
        # The binary codec's bytes, with no network id: the gateway
        # bridge attributes an in-band batch to its own network.
        uplink = InBandUplink(small_mesh.nodes[9], gateway_address=1)
        batch = make_batch(node=9)
        uplink.send(replace(batch, network_id="campus-a"), lambda ok: None)
        assert uplink.stats.bytes_sent == len(BinaryCodec().encode(batch))

    def test_bridge_ignores_data_messages(self, small_mesh):
        world = small_mesh
        server = MonitorServer()
        bridge = GatewayBridge(world.nodes[1], server)
        world.nodes[9].send_message(1, b"ordinary data")
        world.sim.run(until=world.sim.now + 60.0)
        assert bridge.batches_bridged == 0

    def test_bridge_counts_corrupt_batches(self, small_mesh):
        world = small_mesh
        server = MonitorServer()
        bridge = GatewayBridge(world.nodes[1], server)
        from repro.mesh.packet import PacketType
        world.nodes[9].send_message(1, b"garbage bytes", ptype=PacketType.TELEMETRY)
        world.sim.run(until=world.sim.now + 60.0)
        assert bridge.batches_rejected == 1
