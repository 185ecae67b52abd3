"""Integration: a full scenario served over real HTTP.

Runs a simulation, then stands up the HTTP API over the resulting store
and drives it with urllib — the same wire path a Grafana-like frontend
or a real ESP32 client would use.
"""

import json
import urllib.request

import pytest

from repro.monitor.httpapi import MonitoringHttpServer
from repro.scenario.config import ScenarioConfig, WorkloadSpec
from repro.scenario.runner import run_scenario


@pytest.fixture(scope="module")
def served():
    result = run_scenario(ScenarioConfig(
        seed=41,
        n_nodes=9,
        spreading_factor=9,
        warmup_s=900.0,
        duration_s=900.0,
        report_interval_s=60.0,
        workload=WorkloadSpec(kind="periodic", interval_s=120.0),
    ))
    frozen_now = result.sim.now
    server = MonitoringHttpServer(result.server, port=0, clock=lambda: frozen_now)
    server.start()
    yield server, result
    server.stop()


def get_json(server, path):
    with urllib.request.urlopen(f"{server.url}{path}", timeout=10) as response:
        return json.loads(response.read())


class TestServedDashboard:
    def test_nodes_endpoint_covers_network(self, served):
        server, result = served
        nodes = get_json(server, "/api/v1/networks/default/nodes")
        assert len(nodes) == 9
        assert all(row["health"] is not None for row in nodes)

    def test_summary_pdr_matches_truth(self, served):
        server, result = served
        summary = get_json(server, "/api/v1/networks/default/summary")
        assert summary["network_pdr"] == pytest.approx(result.truth.frag_pdr, abs=0.05)

    def test_delivery_endpoint_has_all_sources(self, served):
        server, result = served
        delivery = get_json(server, "/api/v1/networks/default/delivery")
        sources = {row["src"] for row in delivery}
        assert sources == set(range(2, 10))  # everyone except the sink

    def test_links_are_bidirectional_grid(self, served):
        server, _ = served
        links = get_json(server, "/api/v1/networks/default/links")
        pairs = {(row["tx"], row["rx"]) for row in links}
        assert all((rx, tx) in pairs for tx, rx in pairs)

    def test_concurrent_requests(self, served):
        import threading
        server, _ = served
        errors = []

        def hammer():
            try:
                for _ in range(5):
                    get_json(server, "/api/v1/networks/default/summary")
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
