"""Unit tests for the shared-medium channel arbiter."""

import random

import pytest

from repro.api import Radio, RadioState
from repro.errors import ConfigurationError
from repro.phy.channel import Channel, ChannelConfig
from repro.phy.link import LinkModel, PathLossParams
from repro.phy.params import LoRaParams
from repro.sim.engine import Simulator
from repro.sim.topology import Topology
from repro.sim.trace import TraceLog


def make_world(positions, sf=9):
    sim = Simulator()
    topology = Topology(positions=positions)
    link_model = LinkModel(PathLossParams(shadowing_sigma_db=0.0), random.Random(1))
    trace = TraceLog()
    channel = Channel(sim, topology, link_model, trace=trace)
    params = LoRaParams(spreading_factor=sf)
    return sim, channel, trace, params


class Receiver:
    """Always-listening test receiver."""

    def __init__(self, channel, address, listening=True):
        self.received = []
        self.radio = Radio(initial_state=RadioState.RX if listening else RadioState.SLEEP)
        channel.attach(address, self.received.append, self.radio)


class TestDelivery:
    def test_close_node_receives(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)})
        rx = Receiver(channel, 2)
        channel.transmit(1, params, "payload", 20)
        sim.run()
        assert len(rx.received) == 1
        reception = rx.received[0]
        assert reception.sender == 1 and reception.payload == "payload"
        assert reception.rssi_dbm < 0 and reception.snr_db > -25

    def test_far_node_does_not_receive(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (5000, 0)})
        rx = Receiver(channel, 2)
        channel.transmit(1, params, "payload", 20)
        sim.run()
        assert rx.received == []
        assert trace.count("phy.below_sensitivity") == 1

    def test_broadcast_reaches_all_in_range(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0), 3: (0, 100), 4: (6000, 0)})
        receivers = {a: Receiver(channel, a) for a in (2, 3, 4)}
        channel.transmit(1, params, "x", 20)
        sim.run()
        assert len(receivers[2].received) == 1
        assert len(receivers[3].received) == 1
        assert receivers[4].received == []

    def test_sender_does_not_receive_own_frame(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)})
        rx1 = Receiver(channel, 1)
        Receiver(channel, 2)
        channel.transmit(1, params, "x", 20)
        sim.run()
        assert rx1.received == []

    def test_non_listening_node_misses_frame(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)})
        rx = Receiver(channel, 2, listening=False)
        channel.transmit(1, params, "x", 20)
        sim.run()
        assert rx.received == []
        assert trace.count("phy.rx_missed") == 1


class TestCollisions:
    def test_equal_power_overlap_destroys_both(self):
        sim, channel, trace, params = make_world({1: (0, -100), 2: (0, 100), 3: (0, 0)})
        rx = Receiver(channel, 3)
        Receiver(channel, 1)
        Receiver(channel, 2)
        channel.transmit(1, params, "a", 20)
        channel.transmit(2, params, "b", 20)
        sim.run()
        assert rx.received == []
        assert trace.count("phy.collision") == 2

    def test_capture_lets_strong_frame_through(self):
        sim, channel, trace, params = make_world({1: (0, 30), 2: (0, 300), 3: (0, 0)})
        rx = Receiver(channel, 3)
        Receiver(channel, 1)
        Receiver(channel, 2)
        channel.transmit(1, params, "strong", 20)
        channel.transmit(2, params, "weak", 20)
        sim.run()
        payloads = [r.payload for r in rx.received]
        assert payloads == ["strong"]

    def test_half_duplex_blocks_reception(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)})
        rx1 = Receiver(channel, 1)
        Receiver(channel, 2)
        # Both transmit overlapping frames; neither can hear the other.
        channel.transmit(1, params, "a", 200)
        sim.call_at(0.01, lambda: channel.transmit(2, params, "b", 20))
        sim.run()
        assert rx1.received == []

    def test_different_channels_do_not_collide(self):
        sim, channel, trace, _ = make_world({1: (0, -100), 2: (0, 100), 3: (0, 0)})
        rx = Receiver(channel, 3)
        Receiver(channel, 1)
        Receiver(channel, 2)
        f1 = LoRaParams(spreading_factor=9, frequency_hz=868_100_000)
        f2 = LoRaParams(spreading_factor=9, frequency_hz=868_500_000)
        channel.transmit(1, f1, "a", 20)
        channel.transmit(2, f2, "b", 20)
        sim.run()
        assert sorted(r.payload for r in rx.received) == ["a", "b"]


class TestBusySense:
    def test_idle_channel_is_not_busy(self):
        _, channel, _, _ = make_world({1: (0, 0), 2: (100, 0)})
        assert not channel.is_busy(2)

    def test_nearby_transmission_is_sensed(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)})
        Receiver(channel, 2)
        channel.transmit(1, params, "x", 200)
        assert channel.is_busy(2)
        sim.run()
        assert not channel.is_busy(2)

    def test_hidden_terminal_not_sensed(self):
        _, channel, _, params = make_world({1: (0, 0), 2: (6000, 0)})
        Receiver(channel, 2)
        channel.transmit(1, params, "x", 200)
        assert not channel.is_busy(2)

    def test_own_transmission_counts_as_busy(self):
        _, channel, _, params = make_world({1: (0, 0), 2: (100, 0)})
        channel.transmit(1, params, "x", 200)
        assert channel.is_busy(1)


class TestGeometryEpoch:
    """The lazy per-frame RSSI memo must never outlive the geometry it
    was computed under (REVIEW: stale memos made the index flavours
    diverge under mid-flight mobility)."""

    def test_rssi_memo_invalidated_by_midflight_move(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)})
        rx = Receiver(channel, 2)
        tx = channel.transmit(1, params, "x", 20)
        # Simulate an earlier overlapping frame's completion having
        # memoised this frame's RSSI under pre-move geometry.
        channel._rssi(tx, 2)
        channel.topology.move(2, (80_000.0, 0.0))
        sim.run()
        # Reception is decided against frame-end geometry: 80 km out is
        # hopeless, however strong the memoised pre-move value was.
        assert rx.received == []
        assert trace.count("phy.below_sensitivity") == 1

    def test_rssi_memo_invalidated_by_attenuation_change(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)})
        rx = Receiver(channel, 2)
        tx = channel.transmit(1, params, "x", 20)
        channel._rssi(tx, 2)
        channel.link_model.set_link_attenuation(1, 2, 200.0)
        sim.run()
        assert rx.received == []
        assert trace.count("phy.below_sensitivity") == 1

    def test_rssi_memo_reused_when_geometry_unchanged(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)})
        rx = Receiver(channel, 2)
        tx = channel.transmit(1, params, "x", 20)
        first = channel._rssi(tx, 2)
        assert channel._rssi(tx, 2) == first
        sim.run()
        assert len(rx.received) == 1
        assert rx.received[0].rssi_dbm == first


class TestBookkeepingBounds:
    def test_sender_deque_pruned_without_receiver_evaluation(self):
        """A node that transmits but is never eligible to receive (out of
        everyone's range) must not accumulate its sent frames forever
        (REVIEW: _by_sender was only pruned inside _own_tx_overlaps)."""
        sim = Simulator()
        topology = Topology(positions={1: (0.0, 0.0), 2: (50_000.0, 0.0)})
        link_model = LinkModel(PathLossParams(shadowing_sigma_db=0.0), random.Random(1))
        channel = Channel(
            sim, topology, link_model, config=ChannelConfig(recent_horizon_s=5.0)
        )
        Receiver(channel, 2)
        params = LoRaParams(spreading_factor=7)
        for i in range(40):
            sim.call_at(
                float(i * 10), lambda: channel.transmit(1, params, "x", 8)
            )
        sim.run()
        # Frames are 10 s apart with a 5 s horizon: at each completion all
        # previous frames have expired, so only the latest one survives.
        assert len(channel._by_sender[1]) <= 1


class TestAttachment:
    def test_unknown_address_rejected(self):
        _, channel, _, _ = make_world({1: (0, 0)})
        with pytest.raises(ConfigurationError):
            channel.attach(99, lambda r: None, Radio())

    def test_double_attach_rejected(self):
        _, channel, _, _ = make_world({1: (0, 0), 2: (10, 0)})
        Receiver(channel, 2)
        with pytest.raises(ConfigurationError):
            channel.attach(2, lambda r: None, Radio())

    def test_detach_stops_delivery(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)})
        rx = Receiver(channel, 2)
        channel.detach(2)
        channel.transmit(1, params, "x", 20)
        sim.run()
        assert rx.received == []
