"""Property: every way of building a telemetry record gives the same record.

A record is built in four places: the client's capture hooks, the JSON
decoder, the binary decoders (in-band batch and telemetry datagram) and
the SQLite store's row reader.  Observations are drawn on the wire grid
(centisecond timestamps, tenth-dB RSSI and SNR, whole-millisecond
airtime, 16-bit sequence numbers, ...), where no encoding rounds
anything away, so every path must give back exactly the record the
client captured: the same class, fields of the annotated plain types,
equal values, and the named tuple's guarantees (assignment raises,
hashable, no ``__dict__``, at most 160 bytes for a packet record).
"""

import sys
import typing
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.packet import MAX_PAYLOAD, Packet, PacketType
from repro.monitor.client import MonitorClient, MonitorClientConfig
from repro.monitor.codec import BinaryCodec, JsonCodec
from repro.monitor.records import (
    Direction,
    NeighborObservation,
    PacketRecord,
    RecordBatch,
    StatusRecord,
)
from repro.monitor.sqlitestore import SqliteMetricsStore
from repro.phy.channel import Reception
from repro.phy.params import LoRaParams

u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
tenths = st.integers(-32768, 32767).map(lambda value: value / 10.0)
centis = u32.map(lambda value: value / 100.0)

packet_observations = st.fixed_dictionaries({
    "node": u16,
    "now": centis,
    "direction": st.sampled_from([Direction.IN, Direction.OUT]),
    "packet": st.builds(
        Packet,
        dst=u16,
        src=u16,
        # The client skips TELEMETRY and APP_ACK frames by default.
        ptype=st.sampled_from(
            [PacketType.HELLO, PacketType.ROUTE, PacketType.DATA, PacketType.ACK]
        ),
        packet_id=u16,
        payload=st.binary(max_size=MAX_PAYLOAD),
        next_hop=u16,
        prev_hop=u16,
    ),
    "rssi": tenths,
    "snr": tenths,
    "airtime": u16.map(lambda value: value / 1000.0),
    "attempt": u8,
})

status_observations = st.fixed_dictionaries({
    "now": centis,
    "status": st.fixed_dictionaries({
        "uptime_s": u32.map(float),
        "queue_depth": u8.map(float),
        "route_count": u8.map(float),
        "neighbor_count": u8.map(float),
        "battery_v": u16.map(lambda value: value / 100.0),
        "tx_frames": u32.map(float),
        "tx_airtime_s": u32.map(lambda value: value / 1000.0),
        "retransmissions": u16.map(float),
        "drops": u16.map(float),
        "duty_utilisation": u16.map(lambda value: value / 1000.0),
        "originated": u32.map(float),
        "delivered": u32.map(float),
        "forwarded": u32.map(float),
    }),
    "neighbors": st.lists(
        st.builds(
            SimpleNamespace, address=u16, rssi_ewma_dbm=tenths, snr_ewma_db=tenths,
            frames_heard=u16,
        ),
        max_size=4,
    ),
})


class _Neighbors:
    def __init__(self, entries):
        self._entries = {entry.address: entry for entry in entries}

    def addresses(self):
        return sorted(self._entries)

    def get(self, address):
        return self._entries.get(address)


class _Node:
    """The parts of a mesh node the monitoring client reads."""

    def __init__(self, address, status=None, neighbors=()):
        self.address = address
        self.failed = False
        self.on_packet_in = []
        self.on_packet_out = []
        self._rng = SimpleNamespace(uniform=lambda low, high: low)
        self._status = status
        self.neighbors = _Neighbors(neighbors)

    def status(self):
        return dict(self._status)


#: Capture and snapshots never touch the uplink; only flushes do.
_NO_UPLINK = SimpleNamespace()


class _Sim:
    def __init__(self, now):
        self.now = now

    def call_every(self, interval, callback, start=None):
        return SimpleNamespace(cancel=lambda: None)


def capture_packet(observation):
    """The packet record the client's capture hook builds."""
    node = _Node(observation["node"])
    client = MonitorClient(_Sim(0.0), node, _NO_UPLINK, MonitorClientConfig())
    packet = observation["packet"]
    if observation["direction"] is Direction.IN:
        reception = Reception(
            sender=packet.prev_hop, receiver=node.address, payload=packet,
            payload_bytes=packet.wire_size, rssi_dbm=observation["rssi"],
            snr_db=observation["snr"], params=LoRaParams(), start=0.0,
            end=observation["now"],
        )
        node.on_packet_in[0](observation["now"], packet, reception)
    else:
        node.on_packet_out[0](
            observation["now"], packet, observation["airtime"], observation["attempt"]
        )
    (record,) = client._buffer
    return record


def capture_status(node, observation):
    """The status record the client snapshots."""
    client = MonitorClient(
        _Sim(observation["now"]),
        _Node(node, observation["status"], observation["neighbors"]),
        _NO_UPLINK,
        MonitorClientConfig(),
    )
    return client._snapshot_status()


def every_path(packet, status):
    """(path name, packet record, status record) for each construction path."""
    batch = RecordBatch(
        node=packet.node, batch_seq=0, sent_at=0.0,
        packet_records=(packet,), status_records=(status,),
    )
    paths = [("capture", packet, status)]
    for name, decode, raw in (
        ("json", JsonCodec().decode, JsonCodec().encode(batch)),
        ("datagram", BinaryCodec().decode, BinaryCodec().encode(batch)),
        ("in-band", RecordBatch.from_binary, batch.to_binary()),
    ):
        decoded = decode(raw)
        paths.append((name, *decoded.packet_records, *decoded.status_records))
    with SqliteMetricsStore() as store:
        store.add_packet_records((packet,))
        store.add_status_records((status,))
        (stored_packet,) = store.packet_records()
        (stored_status,) = store.status_records(packet.node)
    paths.append(("sqlite", stored_packet, stored_status))
    return paths


def assert_plain_fields(record):
    """Every field holds exactly its annotated type (``int``, not ``PacketType``)."""
    for name, hint in typing.get_type_hints(type(record)).items():
        value = getattr(record, name)
        if typing.get_origin(hint) is tuple:
            assert type(value) is tuple, name
            for item in value:
                assert type(item) is typing.get_args(hint)[0]
                assert_plain_fields(item)
            continue
        allowed = typing.get_args(hint) if typing.get_origin(hint) is typing.Union else (hint,)
        assert type(value) in allowed, (name, type(value), allowed)


def assert_record_guarantees(record):
    assert not hasattr(record, "__dict__")
    assert hash(record) == hash(tuple(record))
    with pytest.raises(AttributeError):
        record.seq = 1
    assert_plain_fields(record)


class TestEveryConstructionPath:
    @given(packet_observations, status_observations)
    @settings(max_examples=100, deadline=None)
    def test_paths_agree_on_the_wire_grid(self, packet_observation, status_observation):
        packet = capture_packet(packet_observation)
        status = capture_status(packet.node, status_observation)
        for path, packet_record, status_record in every_path(packet, status):
            assert type(packet_record) is PacketRecord, path
            assert type(status_record) is StatusRecord, path
            assert all(type(n) is NeighborObservation for n in status_record.neighbors), path
            assert_record_guarantees(packet_record)
            assert_record_guarantees(status_record)
            assert sys.getsizeof(packet_record) <= 160, path
            assert packet_record == packet, path
            assert status_record == status, path
