"""Unit tests for the CSMA MAC layer."""

import random

import pytest

from repro.mesh.addressing import BROADCAST
from repro.mesh.config import MeshConfig
from repro.mesh.mac import CsmaMac
from repro.mesh.packet import FLAG_ACK_REQUESTED, AckPayload, Packet, PacketType
from repro.phy.channel import Channel
from repro.phy.link import LinkModel, PathLossParams
from repro.phy.params import LoRaParams
from repro.phy.radio import RadioState
from repro.sim.engine import Simulator
from repro.sim.topology import Topology
from repro.sim.trace import TraceLog


def build(positions=None, config=None):
    sim = Simulator()
    topology = Topology(positions=positions or {1: (0, 0), 2: (100, 0)})
    link_model = LinkModel(PathLossParams(shadowing_sigma_db=0.0), random.Random(1))
    trace = TraceLog()
    channel = Channel(sim, topology, link_model, trace=trace)
    config = config or MeshConfig()
    params = LoRaParams(spreading_factor=9)
    macs = {}
    received = {address: [] for address in topology.nodes()}
    for address in topology.nodes():
        mac = CsmaMac(
            sim=sim,
            channel=channel,
            address=address,
            params=params,
            config=config,
            rng=random.Random(address),
        )
        channel.attach(address, received[address].append, mac.radio)
        macs[address] = mac
    return sim, channel, trace, macs, received


def data_packet(src=1, dst=2, next_hop=2, want_ack=False, packet_id=1):
    return Packet(
        dst=dst,
        src=src,
        ptype=PacketType.DATA,
        packet_id=packet_id,
        payload=b"payload",
        next_hop=next_hop,
        prev_hop=src,
        ttl=5,
        flags=FLAG_ACK_REQUESTED if want_ack else 0,
    )


class TestBasicTransmission:
    def test_broadcast_frame_is_transmitted_and_received(self):
        sim, channel, trace, macs, received = build()
        results = []
        macs[1].send(data_packet(next_hop=BROADCAST), lambda ok, why: results.append((ok, why)))
        sim.run(until=10.0)
        assert results == [(True, "sent")]
        assert len(received[2]) == 1
        assert macs[1].stats.tx_frames == 1

    def test_radio_returns_to_rx_after_tx(self):
        sim, channel, trace, macs, received = build()
        macs[1].send(data_packet(next_hop=BROADCAST))
        sim.run(until=10.0)
        assert macs[1].radio.state == RadioState.RX
        assert macs[1].radio.time_in_state(RadioState.TX) > 0

    def test_queue_overflow_drops(self):
        config = MeshConfig(queue_limit=2)
        sim, channel, trace, macs, received = build(config=config)
        outcomes = []
        for index in range(5):
            macs[1].send(
                data_packet(next_hop=BROADCAST, packet_id=index),
                lambda ok, why: outcomes.append((ok, why)),
            )
        sim.run(until=30.0)
        drops = [o for o in outcomes if o == (False, "queue_full")]
        assert len(drops) == 3
        assert macs[1].stats.drops["queue_full"] == 3

    def test_frames_sent_in_fifo_order(self):
        sim, channel, trace, macs, received = build()
        for index in range(3):
            macs[1].send(data_packet(next_hop=BROADCAST, packet_id=index))
        sim.run(until=30.0)
        assert [p.payload.packet_id for p in received[2]] == [0, 1, 2]

    def test_on_frame_tx_hook_fires(self):
        sim, channel, trace, macs, received = build()
        observed = []
        macs[1].on_frame_tx = lambda packet, airtime, attempt: observed.append(
            (packet.packet_id, attempt)
        )
        macs[1].send(data_packet(next_hop=BROADCAST, packet_id=9))
        sim.run(until=10.0)
        assert observed == [(9, 1)]


class TestStopMidFrame:
    """A MAC stopped while its radio transmits (the node failed) leaves
    the radio asleep when the frame's airtime ends."""

    @staticmethod
    def ack_packet():
        return Packet(
            dst=2, src=1, ptype=PacketType.ACK, packet_id=500,
            payload=AckPayload(2, 7).encode(), next_hop=2, prev_hop=1, ttl=1,
        )

    @pytest.mark.parametrize("frame", ["data", "ack"])
    def test_radio_stays_asleep(self, frame):
        sim, channel, trace, macs, received = build()
        mac = macs[1]
        if frame == "data":
            mac.send(data_packet(next_hop=BROADCAST))
        else:
            mac.send_ack(self.ack_packet())
        while mac.radio.state != RadioState.TX:
            assert sim.run(max_events=1) == 1
        mac.stop()
        sim.run(until=sim.now + 10.0)  # well past the frame's airtime
        assert mac.radio.state == RadioState.SLEEP
        mac.radio.finalize(sim.now)
        rx_s = mac.radio.time_in_state(RadioState.RX)
        sim.run(until=sim.now + 300.0)
        mac.radio.finalize(sim.now)
        assert mac.radio.state == RadioState.SLEEP
        assert mac.radio.time_in_state(RadioState.RX) == rx_s


class TestCsma:
    def test_busy_channel_defers_transmission(self):
        sim, channel, trace, macs, received = build(
            positions={1: (0, 0), 2: (100, 0), 3: (50, 0)}
        )
        # Node 3 transmits a long frame; node 1 should defer.
        macs[3].send(data_packet(src=3, dst=2, next_hop=BROADCAST, packet_id=50))
        sim.call_at(0.01, lambda: macs[1].send(data_packet(next_hop=BROADCAST)))
        sim.run(until=30.0)
        tx_times = [event.time for event in trace.events(kind="phy.tx")]
        assert len(tx_times) == 2
        # No overlap: second tx starts after first frame ends.
        first_airtime = channel.airtime(macs[3].params, data_packet().wire_size)
        assert tx_times[1] >= tx_times[0] + first_airtime

    def test_csma_exhaustion_drops_frame(self):
        config = MeshConfig(csma_max_attempts=2, csma_initial_backoff_s=0.01, csma_max_backoff_s=0.02)
        sim, channel, trace, macs, received = build(
            positions={1: (0, 0), 2: (100, 0), 3: (50, 0)}, config=config
        )
        # Saturate the channel from node 3 with back-to-back long frames.
        def spam():
            macs[3].send(data_packet(src=3, dst=2, next_hop=BROADCAST, packet_id=99))

        for index in range(40):
            sim.call_at(index * 0.3, spam)
        outcome = []
        sim.call_at(0.05, lambda: macs[1].send(
            data_packet(next_hop=BROADCAST), lambda ok, why: outcome.append((ok, why))
        ))
        sim.run(until=20.0)
        assert outcome and outcome[0] == (False, "csma_exhausted")


class TestAcks:
    def test_acked_unicast_succeeds_without_retransmission(self):
        sim, channel, trace, macs, received = build()
        # Wire node 2 to ack DATA frames addressed to it.
        def auto_ack(reception):
            packet = reception.payload
            if packet.ptype == PacketType.DATA and packet.next_hop == 2:
                from repro.mesh.packet import AckPayload
                ack = Packet(
                    dst=packet.prev_hop, src=2, ptype=PacketType.ACK, packet_id=500,
                    payload=AckPayload(packet.src, packet.packet_id).encode(),
                    next_hop=packet.prev_hop, prev_hop=2, ttl=1,
                )
                macs[2].send_ack(ack)

        channel.detach(2)
        channel.attach(2, auto_ack, macs[2].radio)
        results = []
        macs[1].send(data_packet(want_ack=True), lambda ok, why: results.append((ok, why)))

        def feed_acks():
            # Feed incoming ACK receptions at node 1 into its MAC.
            pass

        # Node 1 needs its reception path wired to handle_ack.
        def on_rx_1(reception):
            packet = reception.payload
            if packet.ptype == PacketType.ACK and packet.next_hop == 1:
                from repro.mesh.packet import AckPayload
                ack = AckPayload.decode(packet.payload)
                macs[1].handle_ack(ack.acked_src, ack.acked_packet_id, packet.prev_hop)

        channel.detach(1)
        channel.attach(1, on_rx_1, macs[1].radio)
        sim.run(until=30.0)
        assert results == [(True, "acked")]
        assert macs[1].stats.retransmissions == 0
        assert macs[2].stats.acks_sent == 1
        assert macs[1].stats.acks_received == 1

    def test_missing_ack_retransmits_then_fails(self):
        config = MeshConfig(max_retries=2, ack_timeout_s=0.5)
        sim, channel, trace, macs, received = build(config=config)
        results = []
        macs[1].send(data_packet(want_ack=True), lambda ok, why: results.append((ok, why)))
        sim.run(until=60.0)
        assert results == [(False, "ack_timeout")]
        # 1 initial + 2 retries = 3 transmissions.
        assert macs[1].stats.tx_frames == 3
        assert macs[1].stats.retransmissions == 2

    def test_wrong_ack_is_ignored(self):
        sim, channel, trace, macs, received = build()
        macs[1].send(data_packet(want_ack=True, packet_id=1))
        sim.run(until=1.0)
        assert not macs[1].handle_ack(acked_src=1, acked_packet_id=999, from_addr=2)
        assert not macs[1].handle_ack(acked_src=1, acked_packet_id=1, from_addr=3)


class TestDutyCycle:
    def test_duty_cycle_defers_until_budget(self):
        # Tiny window so the budget is overwhelmed quickly.
        sim, channel, trace, macs, received = build()
        macs[1].duty._window_s = 100.0  # 1% of 100 s = 1.0 s budget
        airtime = channel.airtime(macs[1].params, data_packet().wire_size)
        n_fit = int(1.0 / airtime)
        assert n_fit >= 1
        for index in range(n_fit + 2):
            macs[1].send(data_packet(next_hop=BROADCAST, packet_id=index))
        sim.run(until=20.0)
        sent_early = macs[1].stats.tx_frames
        assert sent_early <= n_fit
        # Once the window slides, the remaining frames go out.
        sim.run(until=400.0)
        assert macs[1].stats.tx_frames == n_fit + 2

    def test_stop_flushes_queue(self):
        sim, channel, trace, macs, received = build()
        outcomes = []
        macs[1].send(data_packet(next_hop=BROADCAST), lambda ok, why: outcomes.append((ok, why)))
        macs[1].stop()
        sim.run(until=10.0)
        assert outcomes == [(False, "stopped")]
        assert macs[1].radio.state == RadioState.SLEEP
        # Nothing transmits after stop.
        assert macs[1].stats.tx_frames == 0
