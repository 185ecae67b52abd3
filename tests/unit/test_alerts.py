"""Unit tests for the alerting engine."""

import pytest

from repro.api import NodeDelta
from repro.monitor.alerts import (
    AlertEngine,
    BatteryLowRule,
    DutyCycleRule,
    LowPdrRule,
    QueueBacklogRule,
    SilentNodeRule,
    default_rules,
)
from repro.monitor.records import Direction, PacketRecord, StatusRecord
from repro.monitor.storage import MetricsStore


def status(node=1, seq=0, ts=0.0, battery=3.7, duty=0.01, queue=0):
    return StatusRecord(
        node=node, seq=seq, timestamp=ts, uptime_s=ts, queue_depth=queue,
        route_count=1, neighbor_count=1, battery_v=battery, tx_frames=1,
        tx_airtime_s=0.1, retransmissions=0, drops=0, duty_utilisation=duty,
        originated=0, delivered=0, forwarded=0,
    )


@pytest.fixture
def store():
    return MetricsStore()


class TestSilentNode:
    def test_fires_after_silence(self, store):
        store.note_batch(1, received_at=0.0, dropped_records=0)
        rule = SilentNodeRule(max_silence_s=100.0)
        assert rule.conditions(store, now=50.0) == []
        firing = rule.conditions(store, now=150.0)
        assert len(firing) == 1 and firing[0][0] == 1

    def test_never_seen_node_not_flagged(self, store):
        store.add_status_record(status(node=1))
        rule = SilentNodeRule(max_silence_s=100.0)
        assert rule.conditions(store, now=1000.0) == []


class TestThresholdRules:
    def test_battery_low(self, store):
        store.add_status_record(status(node=1, battery=3.2))
        store.add_status_record(status(node=2, battery=3.9))
        firing = BatteryLowRule(threshold_v=3.4).conditions(store, now=0.0)
        assert [node for node, _ in firing] == [1]

    def test_duty_cycle(self, store):
        store.add_status_record(status(node=1, duty=0.95))
        firing = DutyCycleRule(threshold=0.8).conditions(store, now=0.0)
        assert len(firing) == 1

    def test_queue_backlog(self, store):
        store.add_status_record(status(node=1, queue=15))
        firing = QueueBacklogRule(threshold=10).conditions(store, now=0.0)
        assert len(firing) == 1

    def test_low_pdr_needs_minimum_traffic(self, store):
        # 2 sent, 0 delivered but min_sent=5: no alert.
        for pid in range(2):
            store.add_packet_record(PacketRecord(
                node=1, seq=pid, timestamp=0.0, direction=Direction.OUT,
                src=1, dst=9, next_hop=5, prev_hop=1, ptype=3, packet_id=pid,
                size_bytes=40, airtime_s=0.05,
            ))
        rule = LowPdrRule(threshold=0.8, min_sent=5)
        assert rule.conditions(store, now=0.0) == []
        # 6 sent, 0 delivered: alert.
        for pid in range(2, 6):
            store.add_packet_record(PacketRecord(
                node=1, seq=pid, timestamp=0.0, direction=Direction.OUT,
                src=1, dst=9, next_hop=5, prev_hop=1, ptype=3, packet_id=pid,
                size_bytes=40, airtime_s=0.05,
            ))
        firing = rule.conditions(store, now=0.0)
        assert len(firing) == 1 and firing[0][0] == 1


class TestEngineState:
    def test_alert_raised_once_while_persisting(self, store):
        store.add_status_record(status(node=1, battery=3.0))
        engine = AlertEngine(store, rules=[BatteryLowRule()])
        assert len(engine.evaluate(now=0.0)) == 1
        assert engine.evaluate(now=10.0) == []  # still firing, not re-raised
        assert len(engine.active()) == 1

    def test_alert_clears_when_condition_gone(self, store):
        store.add_status_record(status(node=1, seq=0, battery=3.0))
        engine = AlertEngine(store, rules=[BatteryLowRule()])
        engine.evaluate(now=0.0)
        store.add_status_record(status(node=1, seq=1, ts=5.0, battery=4.0))
        engine.evaluate(now=10.0)
        assert engine.active() == []
        assert len(engine.history) == 1  # history keeps the raised alert

    def test_realert_after_clear(self, store):
        store.add_status_record(status(node=1, seq=0, battery=3.0))
        engine = AlertEngine(store, rules=[BatteryLowRule()])
        engine.evaluate(now=0.0)
        store.add_status_record(status(node=1, seq=1, ts=5.0, battery=4.0))
        engine.evaluate(now=10.0)
        store.add_status_record(status(node=1, seq=2, ts=15.0, battery=3.0))
        raised = engine.evaluate(now=20.0)
        assert len(raised) == 1
        assert len(engine.history) == 2

    def test_evaluate_changes_reports_raised_and_cleared(self, store):
        store.add_status_record(status(node=1, seq=0, battery=3.0))
        engine = AlertEngine(store, rules=[BatteryLowRule()])
        raised, cleared = engine.evaluate_changes(now=0.0)
        assert [alert.node for alert in raised] == [1]
        assert cleared == []
        # Condition persists: neither raised again nor cleared.
        assert engine.evaluate_changes(now=5.0) == ([], [])
        store.add_status_record(status(node=1, seq=1, ts=8.0, battery=4.0))
        raised, cleared = engine.evaluate_changes(now=10.0)
        assert raised == []
        assert [alert.node for alert in cleared] == [1]
        assert engine.active() == []

    def test_sweep_builds_one_snapshot_per_node(self, store, monkeypatch):
        for node in (1, 2, 3):
            store.add_status_record(status(node=node, battery=3.0 + node / 10))
        store.note_batch(4, received_at=0.0, dropped_records=0)
        built = []
        from_store = NodeDelta.from_store

        def counting_from_store(store, node):
            built.append(node)
            return from_store(store, node)

        monkeypatch.setattr(NodeDelta, "from_store", staticmethod(counting_from_store))
        engine = AlertEngine(store, rules=default_rules())
        raised = engine.evaluate(now=1000.0)
        assert built == store.nodes() == [1, 2, 3, 4]
        assert [(alert.rule, alert.node) for alert in raised] == [
            ("silent_node", 4), ("battery_low", 1), ("battery_low", 2), ("battery_low", 3),
        ]

    def test_default_rules_cover_core_conditions(self):
        names = {rule.name for rule in default_rules()}
        assert {"silent_node", "low_pdr", "duty_cycle", "battery_low", "queue_backlog"} <= names

    def test_alerts_sorted_by_raise_time(self, store):
        store.add_status_record(status(node=1, battery=3.0))
        engine = AlertEngine(store, rules=[BatteryLowRule(), DutyCycleRule(threshold=0.0)])
        engine.evaluate(now=5.0)
        active = engine.active()
        assert all(a.raised_at == 5.0 for a in active)
        assert len(active) == 2


class TestObserveDelta:
    """The O(delta) path: in-memory NodeDelta snapshots, no store reads."""

    def delta(self, node=1, **kwargs):
        return NodeDelta(node=node, **kwargs)

    def test_raise_and_clear_from_deltas(self, store):
        engine = AlertEngine(store, rules=[BatteryLowRule(threshold_v=3.4)])
        raised, cleared = engine.observe(0.0, [self.delta(battery_v=3.0)])
        assert len(raised) == 1 and cleared == []
        assert raised[0].node == 1 and raised[0].rule == "battery_low"
        # Persisting condition: not re-raised.
        raised, cleared = engine.observe(5.0, [self.delta(battery_v=3.1)])
        assert raised == [] and cleared == []
        # Recovered: cleared.
        raised, cleared = engine.observe(10.0, [self.delta(battery_v=4.0)])
        assert raised == [] and len(cleared) == 1
        assert engine.active() == []

    def test_none_fields_leave_state_untouched(self, store):
        engine = AlertEngine(store, rules=[BatteryLowRule()])
        engine.observe(0.0, [self.delta(battery_v=3.0)])
        # A delta without battery data cannot judge: the alert stays.
        raised, cleared = engine.observe(5.0, [self.delta(battery_v=None)])
        assert raised == [] and cleared == []
        assert len(engine.active()) == 1

    def test_silent_node_clears_on_report_but_never_raises(self, store):
        engine = AlertEngine(store, rules=[SilentNodeRule(max_silence_s=100.0)])
        # Seed the active alert via the periodic sweep.
        store.note_batch(1, received_at=0.0, dropped_records=0)
        engine.evaluate(now=500.0)
        assert len(engine.active()) == 1
        # The node reports again: the delta clears the silence alert.
        raised, cleared = engine.observe(510.0, [self.delta(last_seen=510.0)])
        assert raised == [] and len(cleared) == 1

    def test_windowed_rules_do_not_participate(self, store):
        engine = AlertEngine(store, rules=[LowPdrRule()])
        raised, cleared = engine.observe(
            0.0, [self.delta(battery_v=3.0, duty_utilisation=0.99, queue_depth=50)]
        )
        assert raised == [] and cleared == []

    def test_observe_and_evaluate_compose(self, store):
        # Both paths share alert state keyed on (rule, node): an alert
        # raised by observe stays active across a sweep that still sees
        # the condition in the store, and neither path re-raises it.
        store.add_status_record(status(node=1, battery=3.1))
        store.add_status_record(status(node=2, battery=3.0))
        engine = AlertEngine(store, rules=[BatteryLowRule()])
        engine.observe(0.0, [self.delta(node=1, battery_v=3.1)])
        sweep_raised = engine.evaluate(now=1.0)
        assert {alert.node for alert in sweep_raised} == {2}  # node 1 already active
        assert {alert.node for alert in engine.active()} == {1, 2}
        raised, _ = engine.observe(2.0, [self.delta(node=1, battery_v=3.1)])
        assert raised == []  # still active, not re-raised

    def test_queue_backlog_from_delta(self, store):
        engine = AlertEngine(store, rules=[QueueBacklogRule(threshold=10)])
        raised, _ = engine.observe(0.0, [self.delta(queue_depth=15)])
        assert len(raised) == 1
        _, cleared = engine.observe(1.0, [self.delta(queue_depth=2)])
        assert len(cleared) == 1


class TestBoundedHistory:
    def test_history_is_bounded_ring(self, store):
        engine = AlertEngine(store, rules=[BatteryLowRule()], history_limit=4)
        for index in range(10):
            engine.observe(float(index), [NodeDelta(node=1, battery_v=3.0)])
            engine.observe(float(index) + 0.5, [NodeDelta(node=1, battery_v=4.0)])
        assert engine.history_len == 4
        assert engine.alerts_emitted == 10  # cumulative counter survives eviction
        assert [alert.raised_at for alert in engine.history] == [6.0, 7.0, 8.0, 9.0]

    def test_notification_sinks_fire(self, store):
        engine = AlertEngine(store, rules=[BatteryLowRule()])
        raised_seen, cleared_seen = [], []
        engine.on_raise.append(raised_seen.append)
        engine.on_clear.append(cleared_seen.append)
        engine.observe(0.0, [NodeDelta(node=1, battery_v=3.0)])
        engine.observe(1.0, [NodeDelta(node=1, battery_v=4.0)])
        assert len(raised_seen) == 1 and len(cleared_seen) == 1
        assert raised_seen[0] == cleared_seen[0]

    def test_alert_json_shape(self, store):
        engine = AlertEngine(store, rules=[BatteryLowRule()])
        [alert], _ = engine.observe(3.0, [NodeDelta(node=7, battery_v=3.0)])
        assert alert.to_json_dict() == {
            "rule": "battery_low",
            "node": 7,
            "severity": "warning",
            "message": "battery at 3.00 V",
            "raised_at": 3.0,
        }
