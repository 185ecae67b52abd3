"""Unit tests for the monitoring server (ingestion/dedup)."""

import json

import pytest

from repro.api import Dashboard, sqlite_store_factory
from repro.monitor import metrics
from repro.monitor.ingest import SeqWindow
from repro.monitor.records import Direction, PacketRecord, RecordBatch, StatusRecord
from repro.monitor.server import MonitorServer


def packet_record(node=1, seq=0):
    return PacketRecord(
        node=node, seq=seq, timestamp=float(seq), direction=Direction.IN,
        src=2, dst=node, next_hop=node, prev_hop=2, ptype=3, packet_id=seq,
        size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
    )


def status_record(node=1, seq=0):
    return StatusRecord(
        node=node, seq=seq, timestamp=float(seq), uptime_s=10.0, queue_depth=0,
        route_count=1, neighbor_count=1, battery_v=3.7, tx_frames=1,
        tx_airtime_s=0.1, retransmissions=0, drops=0, duty_utilisation=0.0,
        originated=0, delivered=0, forwarded=0,
    )


def batch(node=1, batch_seq=0, packets=(), status=(), dropped=0):
    return RecordBatch(
        node=node, batch_seq=batch_seq, sent_at=1.0,
        packet_records=tuple(packets), status_records=tuple(status),
        dropped_records=dropped,
    )


class TestSeqWindow:
    def test_new_seqs_accepted(self):
        window = SeqWindow()
        assert window.check_and_add(0)
        assert window.check_and_add(1)

    def test_duplicates_rejected(self):
        window = SeqWindow()
        window.check_and_add(5)
        assert not window.check_and_add(5)

    def test_out_of_order_within_window_ok(self):
        window = SeqWindow()
        window.check_and_add(10)
        assert window.check_and_add(3)
        assert not window.check_and_add(3)

    def test_compaction_keeps_exactness_for_old_seqs(self):
        window = SeqWindow(capacity=10)
        for seq in range(25):
            assert window.check_and_add(seq)
        # Everything already seen stays rejected after compaction.
        for seq in range(25):
            assert not window.check_and_add(seq)


class TestIngestion:
    def test_accepts_records(self):
        server = MonitorServer()
        result = server.submit(batch(packets=[packet_record(seq=0)], status=[status_record(seq=0)]))
        assert result.ok
        assert result.accepted_packets == 1
        assert result.accepted_status == 1
        assert server.store.packet_record_count() == 1

    def test_deduplicates_retried_records(self):
        server = MonitorServer()
        records = [packet_record(seq=0), packet_record(seq=1)]
        server.submit(batch(batch_seq=0, packets=records))
        result = server.submit(batch(batch_seq=1, packets=records + [packet_record(seq=2)]))
        assert result.accepted_packets == 1
        assert result.duplicates == 2
        assert server.store.packet_record_count() == 3

    def test_rejects_foreign_records(self):
        server = MonitorServer()
        result = server.submit(batch(node=1, packets=[packet_record(node=2, seq=0)]))
        assert result.accepted_packets == 0
        assert server.store.packet_record_count() == 0

    def test_json_round_trip(self):
        server = MonitorServer()
        raw = batch(packets=[packet_record()]).to_json_bytes()
        result = server.ingest_json(raw)
        assert result.ok and result.accepted_packets == 1
        assert server.stats.bytes_received == len(raw)

    def test_binary_round_trip(self):
        server = MonitorServer()
        raw = batch(packets=[packet_record()], status=[status_record()]).to_binary()
        result = server.ingest_binary(raw)
        assert result.ok and result.accepted_packets == 1 and result.accepted_status == 1

    def test_garbage_json_rejected(self):
        server = MonitorServer()
        result = server.ingest_json(b"{broken")
        assert not result.ok
        assert server.stats.batches_rejected == 1

    def test_garbage_binary_rejected(self):
        server = MonitorServer()
        assert not server.ingest_binary(b"\x00\x01").ok

    def test_batch_metadata_recorded(self):
        clock_value = [123.0]
        server = MonitorServer(clock=lambda: clock_value[0])
        server.submit(batch(dropped=7))
        assert server.store.last_seen(1) == 123.0
        assert server.store.reported_drops(1) == 7

    def test_stats_accumulate(self):
        server = MonitorServer()
        server.submit(batch(batch_seq=0, packets=[packet_record(seq=0)]))
        server.submit(batch(batch_seq=1, packets=[packet_record(seq=0)]))
        assert server.stats.batches_ok == 2
        assert server.stats.records_accepted == 1
        assert server.stats.duplicates == 1

    def test_per_node_windows_are_independent(self):
        server = MonitorServer()
        server.submit(batch(node=1, packets=[packet_record(node=1, seq=0)]))
        result = server.submit(batch(node=2, packets=[packet_record(node=2, seq=0)]))
        assert result.accepted_packets == 1


class TestSelfMetrics:
    def test_ingest_counters(self):
        server = MonitorServer()
        server.submit(batch(batch_seq=0, packets=[packet_record(seq=0)],
                            status=[status_record(seq=0)]))
        server.submit(batch(batch_seq=1, packets=[packet_record(seq=0)]))
        metrics = server.self_metrics
        assert metrics.batches_ingested == 2
        assert metrics.packet_records_ingested == 1
        assert metrics.status_records_ingested == 1
        assert metrics.records_ingested == 2
        assert metrics.dedup_hits == 1

    def test_decode_failure_counted(self):
        server = MonitorServer()
        server.ingest_json(b"{broken")
        assert server.self_metrics.decode_failures == 1

    def test_foreign_records_counted(self):
        server = MonitorServer()
        server.submit(batch(node=1, packets=[packet_record(node=2, seq=0)]))
        assert server.self_metrics.foreign_records_rejected == 1

    def test_document_shape(self):
        server = MonitorServer()
        server.submit(batch(packets=[packet_record(seq=0)]))
        document = server.self_metrics_document()
        assert document["batches_ingested"] == 1
        assert document["records_ingested"] == 1

    def test_flush_latency_recorded_for_sqlite_store(self):
        from repro.monitor.sqlitestore import SqliteMetricsStore
        store = SqliteMetricsStore(flush_records=1)
        server = MonitorServer(store=store)
        server.submit(batch(packets=[packet_record(seq=0)]))
        assert server.self_metrics.store_flushes >= 1
        assert server.self_metrics.flush_latency_max_s > 0.0
        document = server.self_metrics_document()
        assert document["store"]["records_flushed"] >= 1
        store.close()

    def test_sqlite_flush_runs_outside_the_server_lock(self):
        from repro.monitor.sqlitestore import SqliteMetricsStore
        store = SqliteMetricsStore(flush_records=1000, flush_interval_s=None)
        server = MonitorServer(store=store)
        lock_held = []
        flush = store.flush

        def recording_flush():
            lock_held.append(server._lock._is_owned())
            return flush()

        store.flush = recording_flush
        server.submit(batch(packets=[packet_record(seq=seq) for seq in range(1200)]))
        assert lock_held == [False]
        assert store.pending_records == 0
        store.close()

    def test_replayed_seqs_do_not_flush_under_the_server_lock(self, tmp_path):
        # A reopened store under a new server (fresh dedup windows) gets
        # seqs 10 and 11, then 5, which replaces a stored row: finding
        # that row must not flush the buffered 10 and 11.
        from repro.monitor.sqlitestore import SqliteMetricsStore
        path = str(tmp_path / "shard.sqlite")
        with SqliteMetricsStore(path) as store:
            store.add_packet_records([packet_record(seq=seq) for seq in range(10)])
        store = SqliteMetricsStore(path, flush_records=1000, flush_interval_s=None)
        server = MonitorServer(store=store)
        lock_held = []
        flush = store.flush

        def recording_flush():
            lock_held.append(server._lock._is_owned())
            return flush()

        store.flush = recording_flush
        server.submit(batch(packets=[packet_record(seq=seq) for seq in (10, 11, 5)]))
        assert lock_held == []
        assert store.pending_records == 3
        # The replay replaced seq 5 in the aggregate, not added to it.
        assert store.aggregate.links()[0][2] == 12
        store.close()
        with SqliteMetricsStore(path) as reopened:
            assert reopened.packet_record_count() == 12

    def test_explicit_server_flush(self):
        from repro.monitor.sqlitestore import SqliteMetricsStore
        store = SqliteMetricsStore(flush_records=10_000, flush_interval_s=None)
        server = MonitorServer(store=store)
        server.submit(batch(packets=[packet_record(seq=0)]))
        assert store.pending_records == 1
        server.flush()
        assert store.pending_records == 0
        assert server.self_metrics.store_flushes == 1
        store.close()

    def test_reading_metrics_creates_no_default_network(self, tmp_path):
        # Reading the self-metrics, directly or through the dashboard's
        # server panel, must not create the implicit ``default`` network
        # (nor, with durable stores, its SQLite file).
        server = MonitorServer(store_factory=sqlite_store_factory(str(tmp_path)))
        server.submit(RecordBatch(
            node=1, batch_seq=0, sent_at=1.0,
            packet_records=(packet_record(seq=0),), network_id="site-a",
        ))
        document = server.self_metrics_document()
        assert server.networks() == ["site-a"]
        assert document["networks"] == 1
        assert document["store"]["flushes"] == 0
        dashboard = Dashboard(
            server.store_for("site-a"), monitor_server=server, network_id="site-a"
        )
        dashboard.to_json_dict(10.0)
        assert server.networks() == ["site-a"]
        server.close()
        assert not (tmp_path / "default.sqlite").exists()


class TestAlertSweep:
    """The periodic full-rule sweep over the shard alert engines."""

    def drain_events(self, subscription):
        events = []
        while True:
            event = subscription.get_nowait()
            if event is None:
                return events
            events.append(event)

    def test_sweep_raises_silent_node_and_publishes(self):
        from repro.monitor.stream.events import network_topic

        clock = {"now": 0.0}
        server = MonitorServer(clock=lambda: clock["now"])
        server.submit(batch(packets=[packet_record(seq=0)]))
        topic = network_topic("default")
        subscription = server.stream.subscribe([topic])
        clock["now"] = 1000.0  # silence >> 3 report intervals
        raised = server.sweep_alerts()
        assert [(alert.rule, alert.node) for alert in raised] == [("silent_node", 1)]
        events = self.drain_events(subscription)
        assert [event.type for event in events] == ["alert-raised"]
        assert events[0].data["rule"] == "silent_node"
        assert events[0].data["network"] == "default"
        assert server.alert_sweeps == 1
        assert server.self_metrics_document()["alert_sweeps"] == 1

    def test_sweep_publishes_clears(self):
        from repro.monitor.stream.events import network_topic

        clock = {"now": 0.0}
        server = MonitorServer(clock=lambda: clock["now"])
        server.submit(batch(packets=[packet_record(seq=0)]))
        clock["now"] = 1000.0
        assert len(server.sweep_alerts()) == 1
        # The node reports again: the next sweep clears the silence.
        topic = network_topic("default")
        subscription = server.stream.subscribe([topic])
        server.submit(batch(batch_seq=1, packets=[packet_record(seq=1)]))
        server.sweep_alerts()
        assert server.shard_for("default").alerts.active() == []
        types = [event.type for event in self.drain_events(subscription)]
        # The O(delta) observe path may have cleared it at ingest
        # already; either way exactly one clear reaches the stream.
        assert types.count("alert-cleared") == 1

    def test_sweep_silence_threshold_follows_report_interval(self):
        # 230 s of silence is less than one 300 s report interval.
        clock = {"now": 0.0}
        server = MonitorServer(clock=lambda: clock["now"], report_interval_s=300.0)
        server.submit(batch(packets=[packet_record(seq=0)]))
        clock["now"] = 230.0
        assert server.sweep_alerts() == []
        assert server.shard_for("default").alerts.active() == []

    def test_maybe_sweep_paces_on_server_clock(self):
        clock = {"now": 0.0}
        server = MonitorServer(
            clock=lambda: clock["now"], report_interval_s=100.0
        )
        # The first submit anchors the cadence without sweeping.
        server.submit(batch(packets=[packet_record(seq=0)]))
        assert server.alert_sweeps == 0
        clock["now"] = 50.0
        assert server.maybe_sweep_alerts() == []
        assert server.alert_sweeps == 0  # interval not yet elapsed
        clock["now"] = 150.0
        server.maybe_sweep_alerts()
        assert server.alert_sweeps == 1
        server.maybe_sweep_alerts()
        assert server.alert_sweeps == 1  # slot claimed; paced, not per call

    def test_drain_sweeps_on_ingest_cadence(self):
        clock = {"now": 0.0}
        server = MonitorServer(clock=lambda: clock["now"])
        server.submit(batch(node=1, packets=[packet_record(node=1, seq=0)]))
        clock["now"] = 500.0
        server.submit(batch(node=2, packets=[packet_record(node=2, seq=0)]))
        # The second submit swept: node 1 fell silent meanwhile.
        assert server.alert_sweeps == 1
        active = server.shard_for("default").alerts.active()
        assert {(alert.rule, alert.node) for alert in active} == {("silent_node", 1)}


class TestTileScoringWork:
    """The tile published per batch re-scores only what the batch changed."""

    @staticmethod
    def scores_per_measured_batch(monkeypatch, n_nodes):
        """``node_score`` calls per batch in the third report interval,
        every node reporting once per interval at evenly spaced times."""
        from repro.monitor import health

        calls = []
        node_score = health.node_score

        def counting_node_score(*components):
            calls.append(components)
            return node_score(*components)

        monkeypatch.setattr(health, "node_score", counting_node_score)
        interval = 60.0
        clock = {"now": 0.0}
        server = MonitorServer(clock=lambda: clock["now"], report_interval_s=interval)
        for cycle in range(3):
            if cycle == 2:
                calls.clear()
            for node in range(1, n_nodes + 1):
                clock["now"] = (cycle + node / n_nodes) * interval
                sent = PacketRecord(
                    node=node, seq=cycle, timestamp=clock["now"], direction=Direction.OUT,
                    src=node, dst=node % n_nodes + 1, next_hop=node % n_nodes + 1,
                    prev_hop=node, ptype=3, packet_id=cycle, size_bytes=40,
                )
                result = server.submit(
                    batch(node=node, batch_seq=cycle, packets=[sent],
                          status=[status_record(node=node, seq=cycle)])
                )
                assert result.ok
        server.close()
        return len(calls) / n_nodes

    def test_scores_per_batch_do_not_grow_with_network_size(self, monkeypatch):
        small = self.scores_per_measured_batch(monkeypatch, 4)
        large = self.scores_per_measured_batch(monkeypatch, 64)
        assert small == large
        assert large <= 1


class TestUnusableNumbers:
    """A batch whose numbers the server cannot aggregate is refused whole."""

    @pytest.mark.parametrize(
        "field, value", [("rssi", "loud"), ("ts", float("inf")), ("ts", float("nan"))]
    )
    def test_refused_before_anything_is_stored(self, field, value):
        server = MonitorServer()
        document = json.loads(batch(packets=[packet_record(seq=0)]).to_json_bytes())
        document["packets"][0][field] = value
        result = server.ingest_json(json.dumps(document).encode())
        assert not result.ok
        assert server.self_metrics.decode_failures == 1
        assert server.store.packet_record_count() == 0
        # The refused seq was not taken: the corrected batch is accepted.
        good = server.ingest_json(batch(packets=[packet_record(seq=0)]).to_json_bytes())
        assert good.ok and good.accepted_packets == 1 and good.duplicates == 0
        Dashboard(server.store).to_json_dict(10.0)
        server.close()


    @staticmethod
    def post(server, node, seq, **fields):
        record = PacketRecord(
            node=node, seq=seq, timestamp=float(seq), direction=Direction.IN,
            src=1, dst=2, next_hop=2, prev_hop=1, ptype=3, packet_id=7,
            size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
        )
        document = json.loads(batch(node=node, batch_seq=seq, packets=[record]).to_json_bytes())
        document["packets"][0].update(fields)
        return server.ingest_json(json.dumps(document).encode())

    def test_huge_timestamps_cannot_make_an_infinite_latency(self):
        # An OUT at ts=-1e308 and its IN at ts=1e308 would give a
        # latency of inf, which no exact sum can hold.
        server = MonitorServer()
        sent = self.post(server, 1, 0, dir="out", ts=-1e308, airtime_ms=72.0, attempt=1)
        received = self.post(server, 2, 0, ts=1e308)
        assert not sent.ok and not received.ok
        assert server.self_metrics.decode_failures == 2
        assert server.store.packet_record_count() == 0
        assert self.post(server, 1, 1, dir="out", ts=5.0, airtime_ms=72.0, attempt=1).ok
        assert self.post(server, 2, 1, ts=6.5).ok
        document = Dashboard(server.store).to_json_dict(10.0)
        assert [row["latency_mean_s"] for row in document["delivery"]] == [1.5]
        server.close()

    def test_huge_rssi_cannot_overflow_a_link_sum(self):
        # Two rssi=1.7e308 frames on one link would sum past the
        # largest float.
        server = MonitorServer()
        assert not self.post(server, 2, 0, rssi=1.7e308).ok
        assert not self.post(server, 2, 1, rssi=1.7e308).ok
        assert self.post(server, 2, 2, rssi=-90.0).ok
        assert self.post(server, 2, 3, rssi=-100.0).ok
        document = Dashboard(server.store).to_json_dict(10.0)
        assert [(row["frames"], row["rssi_mean"]) for row in document["links"]] == [(2, -95.0)]
        server.close()


class TestTileDelivery:
    def test_tile_pdr_counts_every_send_before_a_late_destination(self):
        # Node 1 sends 5,000 packets to node 2, which reports every
        # delivery only afterwards: the tile's PDR is the store's.
        server = MonitorServer(clock=lambda: 10.0)

        def data(node, seq, direction):
            return PacketRecord(
                node=node, seq=seq, timestamp=float(seq), direction=direction,
                src=1, dst=2, next_hop=2, prev_hop=1, ptype=3, packet_id=seq,
                size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
            )

        for node, direction in ((1, Direction.OUT), (2, Direction.IN)):
            for start in range(0, 5000, 500):
                result = server.submit(batch(
                    node=node, batch_seq=start,
                    packets=[data(node, seq, direction) for seq in range(start, start + 500)],
                ))
                assert result.accepted_packets == 500
        tile = server.materialize_tile(server.shard_for("default"), 10.0)
        assert metrics.network_pdr(server.store) == 1.0
        assert tile["pdr"] == 1.0
        server.close()
