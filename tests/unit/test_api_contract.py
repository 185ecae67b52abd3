"""API contract tests for the v1 surface.

Four contracts are pinned here:

1. **Schema** — ``GET /api/v1/schema`` serves exactly the route table
   the dispatcher runs on.
2. **Tenant isolation** — records never leak between networks, even for
   identical node addresses and sequence numbers.
3. **Facade** — every name in ``repro.api.__all__`` is importable,
   importing the facade itself emits no deprecation warnings, and it is
   the only re-exporting module: no package ``__init__`` imports names.
4. **Docs** — ``docs/API.md`` matches the route table it is generated
   from.
"""

import ast
import json
import urllib.request
import warnings
from pathlib import Path

import pytest

from repro.api import (
    Dashboard,
    Direction,
    MonitorServer,
    MonitoringHttpServer,
    PacketRecord,
    RecordBatch,
    StatusRecord,
    schema_document,
)
from repro.monitor.routes import ROUTES, render_api_markdown

REPO_ROOT = Path(__file__).resolve().parents[2]


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


def batch(node=1, batch_seq=0, network_id="default"):
    return RecordBatch(
        node=node, batch_seq=batch_seq, sent_at=1.0,
        packet_records=tuple(packet_record(node, seq) for seq in range(4)),
        status_records=(status_record(node, 0),),
        network_id=network_id,
    )


@pytest.fixture(scope="module")
def served():
    server = MonitorServer(clock=lambda: 10.0)
    for node in (1, 2):
        assert server.submit(batch(node=node)).ok
    dashboard = Dashboard(server.store, report_interval_s=60.0, monitor_server=server)
    http = MonitoringHttpServer(server, dashboard, port=0, clock=lambda: 10.0)
    http.start()
    yield http, server
    http.stop()
    server.close()


def fetch(http, path):
    with urllib.request.urlopen(f"{http.url}{path}", timeout=10) as response:
        return response.read(), response.headers


class TestSchema:
    def test_schema_lists_every_route(self, served):
        http, _ = served
        body, _ = fetch(http, "/api/v1/schema")
        schema = json.loads(body)
        assert schema == json.loads(json.dumps(schema_document()))
        served_routes = {route["name"] for route in schema["routes"]}
        assert served_routes == {route.name for route in ROUTES if route.kind == "api"}


class TestTenantIsolation:
    def test_identical_records_do_not_cross_dedup(self):
        server = MonitorServer()
        assert server.submit(batch(node=1, network_id="a")).ok
        # Same node, same seqs, different network: not duplicates.
        result = server.submit(batch(node=1, network_id="b"))
        assert result.ok
        assert server.shard_for("b").dedup_hits == 0
        assert server.store_for("a").packet_record_count() == 4
        assert server.store_for("b").packet_record_count() == 4
        server.close()

    def test_stores_are_disjoint(self):
        server = MonitorServer()
        server.submit(batch(node=1, network_id="a"))
        server.submit(batch(node=2, network_id="b"))
        assert server.store_for("a").nodes() == [1]
        assert server.store_for("b").nodes() == [2]
        server.close()


class TestFacade:
    def test_all_names_importable(self):
        import repro.api

        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_facade_import_warns_nothing(self):
        import importlib

        import repro.api

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            importlib.reload(repro.api)

    def test_packages_import_nothing(self):
        # lint/rules imports its modules to register the rules.
        registering = REPO_ROOT / "src" / "repro" / "lint" / "rules" / "__init__.py"
        importing = [
            str(path.relative_to(REPO_ROOT))
            for path in sorted((REPO_ROOT / "src" / "repro").rglob("__init__.py"))
            if path != registering
            and any(
                isinstance(node, (ast.Import, ast.ImportFrom))
                for node in ast.parse(path.read_text()).body
            )
        ]
        assert importing == []


class TestDocs:
    def test_api_docs_in_sync_with_route_table(self):
        generated = render_api_markdown()
        on_disk = (REPO_ROOT / "docs" / "API.md").read_text()
        assert on_disk == generated, (
            "docs/API.md is stale; regenerate with: "
            "python -c 'from repro.monitor.routes import render_api_markdown; "
            "open(\"docs/API.md\", \"w\").write(render_api_markdown())'"
        )
