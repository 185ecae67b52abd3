"""Unit tests for the shared-medium channel arbiter."""

import random

import pytest

from repro.api import BruteForceReachability, GridReachabilityIndex, Radio, RadioState
from repro.errors import ConfigurationError
from repro.phy.channel import Channel
from repro.phy.link import LinkModel, PathLossParams
from repro.phy.params import LoRaParams
from repro.sim.engine import Simulator
from repro.sim.topology import Topology
from repro.sim.trace import TraceLog


def make_world(positions, sf=9, reachability=None):
    sim = Simulator()
    topology = Topology(positions=positions)
    link_model = LinkModel(PathLossParams(shadowing_sigma_db=0.0), random.Random(1))
    trace = TraceLog()
    channel = Channel(sim, topology, link_model, trace=trace, reachability=reachability)
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

    def test_half_duplex_from_frame_started_after_incoming(self):
        """A receiver listening when the incoming frame began, that then
        starts its own frame, is not in the frame's deaf set; only the
        frames overlapping the incoming one show it was transmitting."""
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)})
        rx2 = Receiver(channel, 2)
        incoming = channel.transmit(1, params, "a", 200)

        def start_own_frame():
            rx2.radio.set_state(RadioState.TX, sim.now)
            channel.transmit(2, params, "b", 20)

        sim.call_at(0.01, start_own_frame)
        sim.run()
        assert 2 not in incoming.deaf_at_start
        assert rx2.received == []
        verdicts = [e.kind for e in trace.events(node=2) if e.data.get("tx_id") == incoming.tx_id]
        assert verdicts == ["phy.rx_missed"]

    def test_own_frame_ended_before_incoming_does_not_block(self):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)})
        rx2 = Receiver(channel, 2)
        own = channel.transmit(2, params, "b", 20)
        sim.call_at(own.end + 0.01, lambda: channel.transmit(1, params, "a", 20))
        sim.run()
        assert [r.payload for r in rx2.received] == ["a"]
        assert trace.count("phy.rx_missed") == 0

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


FLAVOURS = pytest.mark.parametrize(
    "index", [GridReachabilityIndex, BruteForceReachability], ids=["grid", "brute"]
)


class TestLinkTable:
    """A frame is judged against its sender's link table as of the frame's
    end: after a move or an injected attenuation change the grid index
    patches the changed nodes' entries and the brute-force oracle rebuilds
    the table, and both reuse it while nothing changed.  The world has no
    shadowing or fading, so a delivered frame's RSSI is the table's static
    RSSI."""

    @FLAVOURS
    def test_midflight_move_shows_at_frame_end(self, index):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)}, reachability=index())
        rx = Receiver(channel, 2)
        channel.transmit(1, params, "x", 20)
        # Carrier sense at node 2 builds node 1's table before the move.
        assert channel.is_busy(2)
        before = channel.reachability.link_table(1, params)
        channel.topology.move(2, (200.0, 0.0))
        sim.run()
        expected = params.tx_power_dbm - channel.link_model.path_loss_db(200.0, 1, 2)
        assert [r.rssi_dbm for r in rx.received] == [expected]
        assert expected < before[2]
        # A move out of range at frame end loses the frame, however close
        # the receiver was when it started.
        channel.transmit(1, params, "y", 20)
        assert channel.is_busy(2)
        channel.topology.move(2, (80_000.0, 0.0))
        sim.run()
        assert len(rx.received) == 1
        assert trace.count("phy.below_sensitivity") == 1

    @FLAVOURS
    def test_attenuation_change_shows_at_frame_end(self, index):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)}, reachability=index())
        rx = Receiver(channel, 2)
        channel.transmit(1, params, "x", 20)
        before = channel.reachability.link_table(1, params)[2]
        channel.link_model.set_link_attenuation(1, 2, 3.0)
        sim.run()
        assert [r.rssi_dbm for r in rx.received] == [pytest.approx(before - 3.0)]
        channel.transmit(1, params, "y", 20)
        channel.link_model.set_link_attenuation(1, 2, 200.0)
        sim.run()
        assert len(rx.received) == 1
        assert trace.count("phy.below_sensitivity") == 1

    @FLAVOURS
    def test_unchanged_geometry_reuses_the_table(self, index):
        sim, channel, trace, params = make_world({1: (0, 0), 2: (100, 0)}, reachability=index())
        rx = Receiver(channel, 2)
        table = channel.reachability.link_table(1, params)
        assert list(table) == [2]
        rebuilds = channel.reachability.stats()["rebuilds"]
        for payload in ("x", "y"):
            channel.transmit(1, params, payload, 20)
            assert channel.is_busy(2)
            sim.run()
        assert channel.reachability.link_table(1, params) is table
        assert channel.reachability.stats()["rebuilds"] == rebuilds
        assert [r.rssi_dbm for r in rx.received] == [table[2], table[2]]


class TestBookkeepingBounds:
    def test_sent_frames_pruned_without_receiver_evaluation(self):
        """A node that transmits but is never eligible to receive (out of
        everyone's range) must not leave its sent frames in the channel's
        bookkeeping forever: finished frames leave the recent deque and
        the slot map once no frame on air can overlap them."""
        sim = Simulator()
        topology = Topology(positions={1: (0.0, 0.0), 2: (50_000.0, 0.0)})
        link_model = LinkModel(PathLossParams(shadowing_sigma_db=0.0), random.Random(1))
        channel = Channel(sim, topology, link_model)
        Receiver(channel, 2)
        params = LoRaParams(spreading_factor=7)
        for i in range(40):
            sim.call_at(
                float(i * 10), lambda: channel.transmit(1, params, "x", 8)
            )
        sim.run()
        # Frames are 10 s apart and last milliseconds: at each completion
        # every previous frame ended before the one on air started, so
        # only the latest one survives.
        assert len(channel._recent) <= 1
        slotted = {id(tx) for bucket in channel._slots.values() for tx in bucket}
        assert slotted == {id(tx) for tx in channel._recent}


class TestLongFrames:
    """A frame keeps every interferer that overlapped it, however long it
    is on air: low-bandwidth SF12 frames last minutes."""

    @pytest.mark.parametrize(
        "bandwidth_hz, interferer_at_s, airtime_s",
        [(31_250, 1.0, 36.08), (7_800, 10.0, 144.54)],
    )
    def test_interferer_that_ended_long_before_frame_end_still_counts(
        self, bandwidth_hz, interferer_at_s, airtime_s
    ):
        sim, channel, trace, _ = make_world({1: (0, 0), 2: (100, 0), 3: (110, 0)})
        Receiver(channel, 2)
        Receiver(channel, 3)
        params = LoRaParams(spreading_factor=12, bandwidth_hz=bandwidth_hz)
        long_frame = channel.transmit(1, params, "long", 255)
        assert long_frame.end == pytest.approx(airtime_s, abs=0.01)
        short_frames = []
        sim.call_at(
            interferer_at_s,
            lambda: short_frames.append(channel.transmit(3, params, "short", 8)),
        )
        sim.run()
        # The interferer ended more than 30 s before the long frame did: a
        # fixed retention sized for frames of a few seconds would drop it.
        assert short_frames[0].end < long_frame.end - 30.0
        verdicts = {
            event.node: event.kind
            for event in trace.events()
            if event.node is not None and event.data.get("tx_id") == long_frame.tx_id
        }
        # Node 2 hears node 3's frame far above node 1's; node 3 was
        # talking over the long frame, so it cannot have received it.
        assert verdicts[2] == "phy.collision"
        assert verdicts[3] == "phy.rx_missed"

    def test_only_frames_that_can_overlap_are_kept(self):
        """While a long frame is on air, the frames that ended during it
        stay; once it ends, frames that ended before the oldest frame
        still on air started are pruned."""
        sim, channel, _, _ = make_world({1: (0, 0), 2: (100, 0), 3: (110, 0)})
        long_params = LoRaParams(spreading_factor=12, bandwidth_hz=31_250)
        short_params = LoRaParams(spreading_factor=7)
        channel.transmit(1, long_params, "long", 255)
        sent = []
        for at in (1.0, 2.0, 3.0):
            sim.call_at(at, lambda: sent.append(channel.transmit(3, short_params, "s", 8)))
        sim.run(until=30.0)
        assert list(channel._recent) == sent
        sim.call_at(40.0, lambda: sent.append(channel.transmit(2, short_params, "t", 8)))
        sim.run()
        assert list(channel._recent) == [sent[-1]]
        slotted = {id(tx) for bucket in channel._slots.values() for tx in bucket}
        assert slotted == {id(sent[-1])}


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
