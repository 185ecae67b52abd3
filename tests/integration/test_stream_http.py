"""Integration: the push pipeline over real HTTP.

A live :class:`MonitorServer` + HTTP API; an :class:`SseStreamClient`
subscribes over the wire, batches are ingested, and the events arrive —
including ``Last-Event-ID`` resume across a reconnect.
"""

import threading

import pytest

from repro.api import (
    Dashboard,
    Direction,
    MetricsStore,
    MonitorServer,
    MonitoringHttpServer,
    PacketRecord,
    RecordBatch,
    SseStreamClient,
    StatusRecord,
)

NETWORK = "site-a"


def status_record(node=1, seq=0, ts=10.0, battery=3.9, duty=0.02, queue=0):
    return StatusRecord(
        node=node, seq=seq, timestamp=ts, uptime_s=ts, queue_depth=queue,
        route_count=1, neighbor_count=1, battery_v=battery, tx_frames=1,
        tx_airtime_s=0.1, retransmissions=0, drops=0, duty_utilisation=duty,
        originated=0, delivered=0, forwarded=0,
    )


def batch(node=1, batch_seq=0, seq_base=0, ts=10.0, status=None):
    records = tuple(
        PacketRecord(
            node=node, seq=seq_base + index, timestamp=ts + index,
            direction=Direction.OUT, src=node, dst=9, next_hop=9, prev_hop=node,
            ptype=3, packet_id=seq_base + index, size_bytes=40, airtime_s=0.05,
        )
        for index in range(3)
    )
    return RecordBatch(
        node=node, batch_seq=batch_seq, sent_at=ts + 5.0,
        packet_records=records,
        status_records=(status,) if status is not None else (),
        dropped_records=0, network_id=NETWORK,
    )


@pytest.fixture
def served():
    server = MonitorServer(clock=lambda: 100.0)
    dashboard = Dashboard(MetricsStore(), report_interval_s=60.0)
    http = MonitoringHttpServer(server, dashboard, port=0, clock=lambda: 100.0)
    http.start()
    yield http, server
    http.stop()
    server.close()


def collect(client, count, timeout=10.0):
    """Collect ``count`` events from ``client`` on a worker thread."""
    events = []
    done = threading.Event()

    def run():
        for event in client.events():
            events.append(event)
            if len(events) >= count:
                break
        done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    finished = done.wait(timeout)
    client.close()
    return events, finished


class TestNetworkStream:
    def test_ingest_produces_delta_rollup_and_tile_events(self, served):
        http, server = served
        client = SseStreamClient(
            http.url, network_id=NETWORK, limit=3, heartbeat_s=0.2, timeout_s=5.0
        )
        events = []
        done = threading.Event()

        def run():
            events.extend(client.events())
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        # Wait until the subscriber is registered before ingesting.
        for _ in range(100):
            if server.stream.subscriber_count > 0:
                break
            done.wait(0.05)
        assert server.submit(batch()).ok
        assert done.wait(10.0)
        types = [event.type for event in events]
        assert types == ["ingest-delta", "rollup-update", "fleet-tile"]
        delta = events[0]
        assert delta.topic == f"network:{NETWORK}"
        assert delta.data["node"] == 1
        assert delta.data["accepted_packets"] == 3
        rollup = events[1]
        assert rollup.data["count"] == 3
        assert rollup.data["network"] == NETWORK
        tile = events[2]
        assert tile.data["network"] == NETWORK
        assert tile.data["nodes"] == 1
        assert client.last_event_id == 3

    def test_fleet_stream_carries_tiles_only(self, served):
        http, server = served
        client = SseStreamClient(http.url, limit=2, heartbeat_s=0.2, timeout_s=5.0)
        events = []
        done = threading.Event()

        def run():
            events.extend(client.events())
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        for _ in range(100):
            if server.stream.subscriber_count > 0:
                break
            done.wait(0.05)
        assert server.submit(batch(batch_seq=0)).ok
        assert server.submit(batch(batch_seq=1, seq_base=10, ts=20.0)).ok
        assert done.wait(10.0)
        assert [event.type for event in events] == ["fleet-tile", "fleet-tile"]
        assert all(event.topic == "fleet" for event in events)
        assert events[1].data["batches_ingested"] == 2

    def test_last_event_id_resume_replays_missed_events(self, served):
        http, server = served
        # First connection consumes the first batch's three events.
        first = SseStreamClient(
            http.url, network_id=NETWORK, limit=3, heartbeat_s=0.2, timeout_s=5.0
        )
        ready = threading.Event()
        events_first = []
        done_first = threading.Event()

        def run_first():
            ready.set()
            events_first.extend(first.events())
            done_first.set()

        threading.Thread(target=run_first, daemon=True).start()
        ready.wait(5.0)
        for _ in range(100):
            if server.stream.subscriber_count > 0:
                break
            done_first.wait(0.05)
        assert server.submit(batch(batch_seq=0)).ok
        assert done_first.wait(10.0)
        cursor = first.last_event_id
        assert cursor == 3

        # Client is gone; more events happen while disconnected.
        assert server.submit(batch(batch_seq=1, seq_base=10, ts=20.0)).ok

        # Reconnect with the cursor: the ring replays exactly the missed
        # events (ids 4..6), not the already-seen ones.
        second = SseStreamClient(
            http.url, network_id=NETWORK, limit=3, heartbeat_s=0.2,
            timeout_s=5.0, last_event_id=cursor,
        )
        events_second, finished = collect(second, 3)
        assert finished
        assert [event.event_id for event in events_second] == [4, 5, 6]
        assert events_second[0].type == "ingest-delta"
        assert server.stream.resumes == 1
        assert server.stream.events_replayed == 3

    def test_alert_events_ride_the_stream(self, served):
        http, server = served
        # One batch with a low-battery status publishes exactly four
        # events: ingest-delta, one rollup bucket, alert-raised, fleet-tile.
        client = SseStreamClient(
            http.url, network_id=NETWORK, limit=4, heartbeat_s=0.2, timeout_s=5.0
        )
        events = []
        done = threading.Event()

        def run():
            events.extend(client.events())
            done.set()

        threading.Thread(target=run, daemon=True).start()
        for _ in range(100):
            if server.stream.subscriber_count > 0:
                break
            done.wait(0.05)
        low_battery = status_record(battery=3.0, ts=10.0)
        assert server.submit(batch(status=low_battery)).ok
        assert done.wait(10.0)
        by_type = {event.type: event for event in events}
        assert "alert-raised" in by_type
        alert = by_type["alert-raised"].data
        assert alert["rule"] == "battery_low"
        assert alert["node"] == 1
        assert alert["network"] == NETWORK

    def test_stream_self_metrics_exposed(self, served):
        import json
        import urllib.request

        http, server = served
        with urllib.request.urlopen(f"{http.url}/api/v1/server", timeout=10) as response:
            document = json.loads(response.read())
        assert "stream" in document
        assert document["stream"]["events_published"] == 0
        assert "alerts_emitted" in document
        assert "alerts_history_len" in document
