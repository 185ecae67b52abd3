"""Unit tests for the mesh node runtime."""

import pytest

from repro.errors import ConfigurationError
from repro.mesh import node as node_module
from repro.mesh.addressing import BROADCAST
from repro.mesh.node import MeshNode
from repro.mesh.packet import Packet, PacketType, RoutePayload, RouteVectorEntry


class TestDiscovery:
    def test_hellos_populate_neighbor_tables(self, small_mesh):
        world = small_mesh
        for node in world.nodes.values():
            assert len(node.neighbors) >= 1

    def test_routes_converge_on_grid(self, small_mesh):
        world = small_mesh
        # After warmup every node can route to every other node.
        for node in world.nodes.values():
            for dst in world.nodes:
                if dst != node.address:
                    assert node.routes.next_hop(dst) is not None, (
                        f"node {node.address} has no route to {dst}"
                    )

    def test_corner_to_corner_is_multi_hop(self, small_mesh):
        world = small_mesh
        metric = world.nodes[1].routes.metric(9)
        assert metric is not None and metric >= 2


class TestMessaging:
    def test_unicast_delivery(self, small_mesh):
        world = small_mesh
        delivered = []
        world.nodes[9].on_deliver.append(delivered.append)
        world.nodes[1].send_message(9, b"test payload")
        world.sim.run(until=world.sim.now + 60.0)
        assert len(delivered) == 1
        message = delivered[0]
        assert message.src == 1 and message.dst == 9
        assert message.payload == b"test payload"

    def test_large_message_is_fragmented_and_reassembled(self, small_mesh):
        world = small_mesh
        delivered = []
        world.nodes[9].on_deliver.append(delivered.append)
        payload = bytes(i % 256 for i in range(600))
        world.nodes[1].send_message(9, payload)
        world.sim.run(until=world.sim.now + 120.0)
        assert len(delivered) == 1
        assert delivered[0].payload == payload

    def test_no_route_is_rejected_immediately(self, world):
        world.build(n_nodes=2, area_m=50.0)
        # No warmup: no routes yet.
        assert world.nodes[1].send_message(2, b"x") is None
        assert world.nodes[1].counters.drops["no_route"] == 1

    def test_send_to_unknown_destination_fails(self, small_mesh):
        world = small_mesh
        assert world.nodes[1].send_message(999, b"x") is None

    def test_telemetry_type_is_delivered(self, small_mesh):
        world = small_mesh
        delivered = []
        world.nodes[9].on_deliver.append(delivered.append)
        world.nodes[1].send_message(9, b"batch", ptype=PacketType.TELEMETRY)
        world.sim.run(until=world.sim.now + 60.0)
        assert delivered and delivered[0].ptype == PacketType.TELEMETRY

    def test_invalid_ptype_rejected(self, small_mesh):
        with pytest.raises(ConfigurationError):
            small_mesh.nodes[1].send_message(9, b"x", ptype=PacketType.ACK)


class TestHooks:
    def test_packet_out_hook_sees_transmissions(self, small_mesh):
        world = small_mesh
        observed = []
        world.nodes[1].on_packet_out.append(
            lambda now, packet, airtime, attempt: observed.append(packet.ptype)
        )
        world.nodes[1].send_message(9, b"x")
        world.sim.run(until=world.sim.now + 60.0)
        assert PacketType.DATA in observed

    def test_packet_in_hook_sees_overheard_traffic(self, small_mesh):
        world = small_mesh
        observed = []
        world.nodes[2].on_packet_in.append(
            lambda now, packet, reception: observed.append((packet.ptype, packet.dst))
        )
        world.sim.run(until=world.sim.now + 60.0)
        # Node 2 overhears hellos (broadcast) from its neighbors.
        assert any(ptype == PacketType.HELLO for ptype, _ in observed)

    def test_status_snapshot_fields(self, small_mesh):
        status = small_mesh.nodes[1].status()
        for key in (
            "uptime_s", "queue_depth", "route_count", "neighbor_count",
            "battery_v", "tx_frames", "tx_airtime_s", "duty_utilisation",
        ):
            assert key in status
        assert status["route_count"] == 8.0


class TestFailure:
    def test_failed_node_stops_transmitting(self, small_mesh):
        world = small_mesh
        node = world.nodes[5]
        before = node.mac.stats.tx_frames
        node.fail()
        world.sim.run(until=world.sim.now + 120.0)
        assert node.mac.stats.tx_frames == before
        assert node.failed

    def test_failed_node_cannot_send(self, small_mesh):
        world = small_mesh
        world.nodes[5].fail()
        assert world.nodes[5].send_message(9, b"x") is None

    def test_neighbors_eventually_drop_failed_node(self, small_mesh):
        world = small_mesh
        world.nodes[5].fail()
        world.sim.run(until=world.sim.now + 200.0)
        for address, node in world.nodes.items():
            if address != 5:
                assert 5 not in node.neighbors

    def test_recover_rejoins_network(self, small_mesh):
        world = small_mesh
        node = world.nodes[5]
        node.fail()
        world.sim.run(until=world.sim.now + 100.0)
        node.recover()
        world.sim.run(until=world.sim.now + 200.0)
        assert not node.failed
        assert len(node.neighbors) >= 1
        assert node.routes.next_hop(1) is not None

    def test_traffic_reroutes_around_failure(self, world):
        # Line topology 1-2-3: kill 2, 1->3 must fail (no alternative).
        from repro.sim.topology import Placement
        world.build(n_nodes=3, area_m=300.0, placement=Placement.LINE)
        world.sim.run(until=120.0)
        assert world.nodes[1].routes.next_hop(3) == 2
        world.nodes[2].fail()
        world.sim.run(until=world.sim.now + 400.0)
        # Route through the dead node is eventually poisoned.
        assert world.nodes[1].routes.next_hop(3) is None


class TestFloodingProtocol:
    def test_flood_delivery_without_routes(self, world):
        world.build(n_nodes=9, area_m=250.0, protocol="flood")
        world.sim.run(until=60.0)
        delivered = []
        world.nodes[9].on_deliver.append(delivered.append)
        world.nodes[1].send_message(9, b"flooded")
        world.sim.run(until=world.sim.now + 60.0)
        assert len(delivered) == 1
        assert delivered[0].payload == b"flooded"

    def test_flood_does_not_duplicate_delivery(self, world):
        world.build(n_nodes=9, area_m=250.0, protocol="flood")
        world.sim.run(until=60.0)
        delivered = []
        world.nodes[9].on_deliver.append(delivered.append)
        for index in range(5):
            world.sim.call_in(index * 20.0, lambda: world.nodes[1].send_message(9, b"m"))
        world.sim.run(until=world.sim.now + 200.0)
        assert len(delivered) == 5

    def test_flood_broadcast_reaches_everyone(self, world):
        world.build(n_nodes=9, area_m=250.0, protocol="flood")
        world.sim.run(until=60.0)
        delivered = {address: [] for address in world.nodes}
        for address, node in world.nodes.items():
            node.on_deliver.append(delivered[address].append)
        world.nodes[1].send_message(BROADCAST, b"to all")
        world.sim.run(until=world.sim.now + 60.0)
        reached = [address for address, msgs in delivered.items() if msgs and address != 1]
        assert len(reached) == 8


class TestRouteDecoding:
    """A ROUTE broadcast is decoded once per frame, not once per receiver."""

    #: An address no test node has, so no other frame carries these bytes.
    FOREIGN_DST = 0x7A5C

    def broadcast_route(self, world, monkeypatch, raw):
        """Put a ROUTE frame with payload ``raw`` on the air from node 1
        before any node's first timer fires; return the receivers and the
        payloads passed to ``RoutePayload.decode``."""
        decoded = []
        original = RoutePayload.decode

        def counting(cls, payload):
            decoded.append(payload)
            return original(payload)

        monkeypatch.setattr(RoutePayload, "decode", classmethod(counting))
        node_module._decode_route.cache_clear()
        world.build(n_nodes=5, area_m=50.0)
        packet = Packet(
            dst=BROADCAST, src=1, ptype=PacketType.ROUTE, packet_id=1, payload=raw,
            prev_hop=1, ttl=1,
        )
        tx = world.channel.transmit(1, world.params, packet, packet.wire_size)
        # Hellos start 1 s after boot: the frame has the air to itself.
        world.sim.run(until=0.9)
        receivers = [
            event.node for event in world.trace.events("phy.rx") if event.data["tx_id"] == tx.tx_id
        ]
        return receivers, decoded

    def test_broadcast_heard_by_several_neighbours_is_decoded_once(self, world, monkeypatch):
        raw = RoutePayload([RouteVectorEntry(dst=self.FOREIGN_DST, metric=2)]).encode()
        receivers, decoded = self.broadcast_route(world, monkeypatch, raw)
        assert len(receivers) >= 3
        assert decoded == [raw]
        # Every receiver applied the shared vector.
        for address in receivers:
            assert world.nodes[address].routes.next_hop(self.FOREIGN_DST) == 1
            assert world.nodes[address].routes.metric(self.FOREIGN_DST) == 3

    def test_malformed_route_payload_counted_at_every_receiver(self, world, monkeypatch):
        raw = bytes([2, 0x7A, 0x5C, 1])  # announces 2 entries, carries 1
        receivers, decoded = self.broadcast_route(world, monkeypatch, raw)
        assert len(receivers) >= 3
        # Errors are not memoised: each receiver decodes and fails.
        assert decoded == [raw] * len(receivers)
        for address in receivers:
            assert world.nodes[address].counters.drops["bad_route_payload"] == 1
