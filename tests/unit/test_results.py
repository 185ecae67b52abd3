"""Unit tests for ground-truth accounting and scenario results."""

import math

import pytest

from repro.mesh.addressing import BROADCAST
from repro.scenario.results import GroundTruth
from repro.sim.trace import TraceLog


@pytest.fixture
def tracked():
    trace = TraceLog()
    truth = GroundTruth(window_start=100.0, window_end=200.0, ptype_filter=3)
    truth.attach(trace)
    return trace, truth


class TestWindowing:
    def test_events_outside_window_ignored(self, tracked):
        trace, truth = tracked
        trace.emit(50.0, "phy.tx", node=1)
        trace.emit(150.0, "phy.tx", node=1)
        trace.emit(250.0, "phy.tx", node=1)
        assert truth.phy_tx == 1

    def test_boundaries_inclusive(self, tracked):
        trace, truth = tracked
        trace.emit(100.0, "phy.tx", node=1)
        trace.emit(200.0, "phy.tx", node=1)
        assert truth.phy_tx == 2


class TestMessageAccounting:
    def test_origin_and_delivery_counted_per_pair(self, tracked):
        trace, truth = tracked
        trace.emit(110.0, "mesh.origin", node=1, dst=9, msg_id=5, ptype=3, size=24, n_fragments=1)
        trace.emit(112.0, "mesh.deliver", node=9, src=1, msg_id=5, ptype=3, size=24)
        assert truth.msg_sent == {(1, 9): 1}
        assert truth.msg_delivered == {(1, 9): 1}
        assert truth.msg_pdr == 1.0

    def test_latency_is_first_delivery_only(self, tracked):
        trace, truth = tracked
        trace.emit(110.0, "mesh.origin", node=1, dst=9, msg_id=5, ptype=3, size=24, n_fragments=1)
        trace.emit(113.0, "mesh.deliver", node=9, src=1, msg_id=5, ptype=3, size=24)
        trace.emit(119.0, "mesh.deliver", node=9, src=1, msg_id=5, ptype=3, size=24)
        assert truth.msg_latency[(1, 5)] == pytest.approx(3.0)
        assert truth.mean_latency_s == pytest.approx(3.0)

    def test_broadcast_not_counted(self, tracked):
        trace, truth = tracked
        trace.emit(110.0, "mesh.origin", node=1, dst=BROADCAST, msg_id=5, ptype=3, size=24, n_fragments=1)
        assert truth.total_msg_sent == 0

    def test_ptype_filter(self, tracked):
        trace, truth = tracked
        trace.emit(110.0, "mesh.origin", node=1, dst=9, msg_id=5, ptype=5, size=24, n_fragments=1)
        assert truth.total_msg_sent == 0

    def test_delivery_capped_at_sent(self, tracked):
        trace, truth = tracked
        trace.emit(110.0, "mesh.origin", node=1, dst=9, msg_id=5, ptype=3, size=24, n_fragments=1)
        # Two distinct msg_ids delivered but only one originated in-window.
        trace.emit(112.0, "mesh.deliver", node=9, src=1, msg_id=5, ptype=3, size=24)
        trace.emit(113.0, "mesh.deliver", node=9, src=1, msg_id=99, ptype=3, size=24)
        assert truth.total_msg_delivered == 1
        assert truth.msg_pdr == 1.0

    def test_empty_truth_is_nan(self):
        truth = GroundTruth()
        assert math.isnan(truth.msg_pdr)
        assert math.isnan(truth.frag_pdr)
        assert math.isnan(truth.mean_latency_s)


class TestFragmentAccounting:
    def test_fragment_level_counts(self, tracked):
        trace, truth = tracked
        for pid in (10, 11, 12):
            trace.emit(110.0, "mesh.frag_origin", node=1, dst=9, packet_id=pid, ptype=3)
        for pid in (10, 12):
            trace.emit(112.0, "mesh.frag_deliver", node=9, src=1, dst=9, packet_id=pid, ptype=3)
        assert truth.total_frag_sent == 3
        assert truth.total_frag_delivered == 2
        assert truth.frag_pdr == pytest.approx(2 / 3)

    def test_delivery_at_wrong_node_ignored(self, tracked):
        trace, truth = tracked
        trace.emit(110.0, "mesh.frag_origin", node=1, dst=9, packet_id=10, ptype=3)
        # Overheard at node 5 (not the destination).
        trace.emit(112.0, "mesh.frag_deliver", node=5, src=1, dst=9, packet_id=10, ptype=3)
        assert truth.total_frag_delivered == 0

    def test_pair_pdr(self, tracked):
        trace, truth = tracked
        trace.emit(110.0, "mesh.origin", node=1, dst=9, msg_id=1, ptype=3, size=24, n_fragments=1)
        trace.emit(111.0, "mesh.origin", node=2, dst=9, msg_id=2, ptype=3, size=24, n_fragments=1)
        trace.emit(112.0, "mesh.deliver", node=9, src=1, msg_id=1, ptype=3, size=24)
        pairs = truth.pair_pdr()
        assert pairs[(1, 9)] == 1.0
        assert pairs[(2, 9)] == 0.0


class TestPhyCounters:
    def test_all_phy_kinds_counted(self, tracked):
        trace, truth = tracked
        trace.emit(110.0, "phy.tx", node=1)
        trace.emit(111.0, "phy.rx", node=2)
        trace.emit(112.0, "phy.collision", node=2)
        trace.emit(113.0, "phy.below_sensitivity", tx_id=1, count=3)
        assert (truth.phy_tx, truth.phy_rx) == (1, 1)
        assert truth.phy_collisions == 1
        assert truth.phy_below_sensitivity == 3


class TestResultLifecycle:
    """ScenarioResult owns the monitoring store's shutdown (RL006)."""

    def _result(self, server, store):
        from repro.scenario.results import ScenarioResult

        return ScenarioResult(
            config=None, sim=None, topology=None, link_model=None,
            channel=None, trace=TraceLog(), nodes={}, workloads=[],
            clients={}, uplinks={}, server=server, store=store,
            bridge=None, truth=GroundTruth(),
        )

    def test_context_manager_closes_store_via_server(self):
        from repro.monitor.server import MonitorServer
        from repro.monitor.sqlitestore import SqliteMetricsStore

        store = SqliteMetricsStore()
        with self._result(MonitorServer(store=store), store):
            assert not store.closed
        assert store.closed

    def test_close_idempotent_and_noop_without_monitoring(self):
        result = self._result(None, None)
        result.close()
        result.close()
