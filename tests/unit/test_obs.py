"""Unit tests for the observability layer: spans, recorder, NDJSON.

The recorder tests feed hand-written ground-truth event sequences that
mirror what the real stack emits (same kinds, same field names), so each
inference rule is pinned in isolation; the integration-grade checks that
real scenarios produce coherent verdicts live in
``tests/unit/test_drop_taxonomy.py``.
"""

import json

import pytest

from repro.api import (
    FlightRecorder,
    SpanProfiler,
    export_trace,
    read_trace,
    replay_into_recorder,
)
from repro.obs.ndjson import (
    CaptureFormatError,
    validate_spans_file,
    validate_trace_file,
)
from repro.obs.recorder import (
    ALL_VERDICTS,
    VERDICT_COLLISION,
    VERDICT_DELIVERED,
    VERDICT_IN_FLIGHT,
    VERDICT_NO_ROUTE,
    VERDICT_NODE_DOWN,
    VERDICT_RETRY_EXHAUSTED,
)
from repro.sim.trace import TraceLog


# -- span profiler -------------------------------------------------------------


class TestSpanProfiler:
    def test_disabled_span_is_shared_noop(self):
        profiler = SpanProfiler(enabled=False)
        first = profiler.span("a")
        second = profiler.span("b")
        assert first is second  # one shared object: no per-call allocation
        with first:
            pass
        assert profiler.stats() == {}

    def test_enabled_span_aggregates_by_name(self):
        profiler = SpanProfiler(enabled=True)
        for _ in range(3):
            with profiler.span("work"):
                pass
        stats = profiler.stats()["work"]
        assert stats.count == 3
        assert stats.wall_s >= 0.0
        assert stats.wall_max_s >= stats.wall_mean_s

    def test_sim_clock_feeds_sim_seconds(self):
        clock = {"now": 10.0}
        profiler = SpanProfiler(enabled=True, sim_clock=lambda: clock["now"])
        with profiler.span("step"):
            clock["now"] = 12.5
        assert profiler.stats()["step"].sim_s == pytest.approx(2.5)

    def test_top_ranks_by_total_wall(self):
        profiler = SpanProfiler(enabled=True)
        profiler.record("slow", wall_s=2.0, sim_s=0.0)
        profiler.record("fast", wall_s=0.1, sim_s=0.0)
        profiler.record("slow", wall_s=1.0, sim_s=0.0)
        assert [stats.name for stats in profiler.top(2)] == ["slow", "fast"]
        assert profiler.top(1)[0].count == 2

    def test_reset_clears_aggregates(self):
        profiler = SpanProfiler(enabled=True)
        profiler.record("a", 1.0, 0.0)
        profiler.reset()
        assert profiler.stats() == {}

    def test_ndjson_lines_are_schema_stamped(self):
        profiler = SpanProfiler(enabled=True)
        profiler.record("a", 1.0, 5.0)
        (line,) = profiler.to_ndjson_lines()
        doc = json.loads(line)
        assert doc["schema"] == "repro.obs.span/1"
        assert doc["name"] == "a"
        assert doc["count"] == 1
        assert doc["sim_s"] == 5.0

    def test_export_ndjson_roundtrip(self, tmp_path):
        profiler = SpanProfiler(enabled=True)
        profiler.record("a", 1.0, 0.0)
        profiler.record("b", 2.0, 0.0)
        path = tmp_path / "spans.ndjson"
        assert profiler.export_ndjson(path) == 2
        summary = validate_spans_file(path)
        assert summary["spans"] == 2


# -- flight recorder (synthetic ground truth) ---------------------------------


def emit_delivered(trace, origin=1, relay=2, dst=3, msg_id=7, packet_id=100):
    """One single-fragment message delivered over origin -> relay -> dst."""
    trace.emit(0.0, "mesh.origin", node=origin, dst=dst, msg_id=msg_id,
               ptype=2, size=10, n_fragments=1)
    trace.emit(0.0, "mesh.frag_origin", node=origin, dst=dst, packet_id=packet_id,
               ptype=2, msg_id=msg_id, seg_index=0, seg_total=1)
    trace.emit(0.5, "phy.tx", node=origin, tx_id=1, src=origin,
               packet_id=packet_id, ptype=2, dst=dst, next_hop=relay)
    trace.emit(0.6, "phy.rx", node=relay, tx_id=1)
    trace.emit(0.7, "mesh.forward", node=relay, dst=dst, src=origin,
               packet_id=packet_id)
    trace.emit(1.0, "phy.tx", node=relay, tx_id=2, src=origin,
               packet_id=packet_id, ptype=2, dst=dst, next_hop=dst)
    trace.emit(1.1, "phy.rx", node=dst, tx_id=2)
    trace.emit(1.2, "mesh.frag_deliver", node=dst, src=origin, dst=dst,
               packet_id=packet_id, ptype=2)
    trace.emit(1.2, "mesh.deliver", node=dst, src=origin, msg_id=msg_id,
               ptype=2, size=10)


def attached_recorder(trace):
    recorder = FlightRecorder()
    recorder.attach(trace)
    return recorder


class TestFlightRecorderLifecycles:
    def test_delivered_message_verdict_and_timeline(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        emit_delivered(trace)
        (msg,) = recorder.messages()
        assert msg.trace_id == "1:7"
        assert recorder.verdict(msg) == VERDICT_DELIVERED
        assert msg.delivered_at == 1.2 and msg.deliver_node == 3
        rendered = recorder.explain(msg)
        assert "DELIVERED" in rendered
        assert "forward" in rendered
        # Both hops show up as transmissions with their PHY fate.
        assert rendered.count("tx frag 1/1") == 2

    def test_refused_origin_is_no_route(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        trace.emit(3.0, "mesh.origin_refused", node=4, dst=9, msg_id=1,
                   ptype=2, size=8, reason="no_route")
        (msg,) = recorder.messages()
        assert msg.refused
        assert recorder.verdict(msg) == VERDICT_NO_ROUTE
        assert "origin refused" in recorder.explain(msg)

    def test_mac_drop_maps_to_retry_exhausted(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        trace.emit(0.0, "mesh.origin", node=1, dst=3, msg_id=5, ptype=2,
                   size=10, n_fragments=1)
        trace.emit(0.0, "mesh.frag_origin", node=1, dst=3, packet_id=50,
                   ptype=2, msg_id=5, seg_index=0, seg_total=1)
        trace.emit(0.5, "phy.tx", node=1, tx_id=1, src=1, packet_id=50,
                   ptype=2, dst=3, next_hop=2)
        trace.emit(2.0, "mac.drop", node=1, reason="ack_timeout", src=1,
                   packet_id=50, ptype=2, dst=3, next_hop=2, tx_attempts=4)
        (msg,) = recorder.messages()
        assert recorder.verdict(msg) == VERDICT_RETRY_EXHAUSTED

    def test_ack_timeout_refines_to_node_down(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        trace.emit(0.0, "mesh.origin", node=1, dst=3, msg_id=5, ptype=2,
                   size=10, n_fragments=1)
        trace.emit(0.0, "mesh.frag_origin", node=1, dst=3, packet_id=50,
                   ptype=2, msg_id=5, seg_index=0, seg_total=1)
        trace.emit(0.4, "node.fail", node=2)
        trace.emit(0.5, "phy.tx", node=1, tx_id=1, src=1, packet_id=50,
                   ptype=2, dst=3, next_hop=2)
        trace.emit(2.0, "mac.drop", node=1, reason="ack_timeout", src=1,
                   packet_id=50, ptype=2, dst=3, next_hop=2, tx_attempts=4)
        (msg,) = recorder.messages()
        assert recorder.verdict(msg) == VERDICT_NODE_DOWN

    def test_ack_timeout_refines_to_collision_at_next_hop(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        trace.emit(0.0, "mesh.origin", node=1, dst=3, msg_id=5, ptype=2,
                   size=10, n_fragments=1)
        trace.emit(0.0, "mesh.frag_origin", node=1, dst=3, packet_id=50,
                   ptype=2, msg_id=5, seg_index=0, seg_total=1)
        trace.emit(0.5, "phy.tx", node=1, tx_id=1, src=1, packet_id=50,
                   ptype=2, dst=3, next_hop=2)
        trace.emit(0.6, "phy.collision", node=2, tx_id=1)
        trace.emit(2.0, "mac.drop", node=1, reason="ack_timeout", src=1,
                   packet_id=50, ptype=2, dst=3, next_hop=2, tx_attempts=4)
        (msg,) = recorder.messages()
        assert recorder.verdict(msg) == VERDICT_COLLISION

    def test_air_vanished_fragment_with_collision_outcome(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        trace.emit(0.0, "mesh.origin", node=1, dst=0xFFFF, msg_id=5, ptype=2,
                   size=10, n_fragments=1)
        trace.emit(0.0, "mesh.frag_origin", node=1, dst=0xFFFF, packet_id=50,
                   ptype=2, msg_id=5, seg_index=0, seg_total=1)
        # Broadcast frame (flooding): no MAC retries, no drop event — the
        # only evidence is the PHY outcome at the listeners.
        trace.emit(0.5, "phy.tx", node=1, tx_id=1, src=1, packet_id=50,
                   ptype=2, dst=0xFFFF)
        trace.emit(0.6, "phy.collision", node=2, tx_id=1)
        (msg,) = recorder.messages()
        assert recorder.verdict(msg) == VERDICT_COLLISION

    @pytest.mark.parametrize(
        "receivers, below, fate",
        [((2,), 3, "heard by 1/4"), ((), 24, "heard by 0/24"), ((), 0, "no receivers")],
    )
    def test_broadcast_fate_counts_listeners_below_sensitivity(self, receivers, below, fate):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        trace.emit(0.0, "mesh.origin", node=1, dst=0xFFFF, msg_id=5, ptype=2,
                   size=10, n_fragments=1)
        trace.emit(0.0, "mesh.frag_origin", node=1, dst=0xFFFF, packet_id=50,
                   ptype=2, msg_id=5, seg_index=0, seg_total=1)
        trace.emit(0.5, "phy.tx", node=1, tx_id=1, src=1, packet_id=50,
                   ptype=2, dst=0xFFFF)
        for node in receivers:
            trace.emit(0.6, "phy.rx", node=node, tx_id=1)
        if below:
            trace.emit(0.6, "phy.below_sensitivity", tx_id=1, count=below)
        (msg,) = recorder.messages()
        assert f"  {fate}" in recorder.explain(msg)

    def test_message_without_evidence_is_in_flight(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        trace.emit(0.0, "mesh.origin", node=1, dst=3, msg_id=5, ptype=2,
                   size=10, n_fragments=1)
        trace.emit(0.0, "mesh.frag_origin", node=1, dst=3, packet_id=50,
                   ptype=2, msg_id=5, seg_index=0, seg_total=1)
        (msg,) = recorder.messages()
        assert recorder.verdict(msg) == VERDICT_IN_FLIGHT
        # The timeline says where the fragment is stuck.
        rendered = recorder.explain(msg)
        assert "queued, never transmitted at n1" in rendered

    def test_verdict_counts_cover_every_verdict(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        emit_delivered(trace)
        counts = recorder.verdict_counts()
        assert set(counts) == set(ALL_VERDICTS)
        assert counts[VERDICT_DELIVERED] == 1

    def test_find_by_trace_id_and_bare_id(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        emit_delivered(trace, origin=1, msg_id=7)
        assert [m.trace_id for m in recorder.find("1:7")] == ["1:7"]
        assert [m.trace_id for m in recorder.find("7")] == ["1:7"]
        assert recorder.find("2:7") == []

    def test_e2e_retry_chain_links_messages(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        trace.emit(0.0, "mesh.origin", node=1, dst=3, msg_id=5, ptype=2,
                   size=10, n_fragments=1)
        trace.emit(0.0, "e2e.send", node=1, msg_id=5, dst=3)
        trace.emit(10.0, "mesh.origin", node=1, dst=3, msg_id=6, ptype=2,
                   size=10, n_fragments=1)
        trace.emit(10.0, "e2e.retry", node=1, msg_id=6, prev_msg_id=5,
                   dst=3, attempts_left=1)
        trace.emit(20.0, "e2e.give_up", node=1, dst=3, msg_ids=[5, 6])
        first = recorder.message(1, 5)
        second = recorder.message(1, 6)
        assert first.retried_by == 6
        assert second.retry_of == 5
        assert first.e2e_gave_up and second.e2e_gave_up


class TestFlightRecorderTables:
    def test_link_stats_and_loss_rate(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        emit_delivered(trace)
        stats = recorder.to_json_dict()["links"]["1->2"]
        assert stats["tx"] == 1 and stats["rx"] == 1
        assert stats["loss_rate"] == 0.0

    def test_forwarding_load_counts_relays(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        emit_delivered(trace)
        assert recorder.forwarding_load() == {2: 1}

    def test_drop_counts_groupings(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        trace.emit(0.0, "mesh.origin", node=1, dst=3, msg_id=5, ptype=2,
                   size=10, n_fragments=1)
        trace.emit(0.0, "mesh.frag_origin", node=1, dst=3, packet_id=50,
                   ptype=2, msg_id=5, seg_index=0, seg_total=1)
        trace.emit(1.0, "mac.drop", node=1, reason="queue_full", src=1,
                   packet_id=50, ptype=2, dst=3, next_hop=2, tx_attempts=0)
        assert recorder.drop_counts("reason") == {"queue_full": 1}
        assert recorder.drop_counts("node") == {"n1": 1}
        assert recorder.drop_counts("link") == {"1->2": 1}
        with pytest.raises(ValueError):
            recorder.drop_counts("frequency")

    def test_hop_latency_histogram(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        emit_delivered(trace)
        latencies = recorder.hop_latencies()
        # custody at t=0 (origin), forward at 0.7, deliver at 1.2.
        assert latencies == [pytest.approx(0.7), pytest.approx(0.5)]
        histogram = recorder.hop_latency_histogram(bucket_s=0.5)
        assert histogram == {"0.5-1.0s": 2}

    def test_to_json_dict_shape(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        emit_delivered(trace)
        doc = recorder.to_json_dict()
        assert doc["messages"] == 1
        assert doc["verdicts"][VERDICT_DELIVERED] == 1
        assert doc["links"]["1->2"]["rx"] == 1
        json.dumps(doc)  # must be strict-JSON serialisable

    def test_detach_stops_ingestion(self):
        trace = TraceLog()
        recorder = attached_recorder(trace)
        recorder.detach()
        emit_delivered(trace)
        assert recorder.messages() == []
        assert recorder.to_json_dict()["links"] == {}


# -- NDJSON capture ------------------------------------------------------------


class TestNdjsonCapture:
    def test_export_read_roundtrip(self, tmp_path):
        trace = TraceLog()
        emit_delivered(trace)
        path = tmp_path / "capture.ndjson"
        export_trace(trace, path, meta={"seed": 1})
        header, events = read_trace(path)
        assert header["schema"] == "repro.obs.trace/1"
        assert header["meta"] == {"seed": 1}
        assert header["events"] == len(events) == len(trace)
        assert [e.kind for e in events] == [e.kind for e in trace.events()]
        assert events[0].data == next(trace.events()).data

    def test_replay_reconstructs_identical_verdicts(self, tmp_path):
        trace = TraceLog()
        live = attached_recorder(trace)
        emit_delivered(trace)
        path = tmp_path / "capture.ndjson"
        export_trace(trace, path)
        offline = FlightRecorder()
        assert replay_into_recorder(path, offline) == len(trace)
        assert offline.to_json_dict() == live.to_json_dict()

    def test_validate_trace_file(self, tmp_path):
        trace = TraceLog()
        emit_delivered(trace)
        path = tmp_path / "capture.ndjson"
        export_trace(trace, path)
        summary = validate_trace_file(path)
        assert summary["schema"] == "repro.obs.trace/1"
        assert summary["events"] == len(trace)
        assert "mesh.deliver" in summary["kinds"]

    def test_validate_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"schema": "something/9", "events": 0}\n')
        with pytest.raises(CaptureFormatError):
            validate_trace_file(path)

    def test_validate_rejects_event_count_mismatch(self, tmp_path):
        trace = TraceLog()
        emit_delivered(trace)
        path = tmp_path / "capture.ndjson"
        export_trace(trace, path)
        truncated = path.read_text().splitlines()[:-1]
        path.write_text("\n".join(truncated) + "\n")
        with pytest.raises(CaptureFormatError):
            validate_trace_file(path)

    def test_validate_rejects_garbage_lines(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("not json\n")
        with pytest.raises(CaptureFormatError):
            validate_trace_file(path)

    def test_validate_spans_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.spans.ndjson"
        path.write_text('{"schema": "repro.obs.span/1", "name": "a"}\n')
        with pytest.raises(CaptureFormatError):
            validate_spans_file(path)
