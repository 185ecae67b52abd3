"""Integration: a fleet of mesh networks monitored by one server.

Eight scenarios — eight independent sites — report into a single
multi-tenant :class:`MonitorServer`; the fleet is then served and
queried over real HTTP through the versioned ``/api/v1`` surface,
including an over-the-wire ingest via :class:`HttpIngestClient`.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import (
    Direction,
    HttpIngestClient,
    MonitorServer,
    MonitoringHttpServer,
    PacketRecord,
    RecordBatch,
    ScenarioConfig,
    WorkloadSpec,
    fleet_overview,
    run_scenario,
)

N_NETWORKS = 8
#: frozen dashboard clock: just past every site's simulated end time
NOW = 650.0


def site(index):
    return f"site-{index:02d}"


@pytest.fixture(scope="module")
def fleet():
    server = MonitorServer(clock=lambda: NOW)
    results = []
    for index in range(N_NETWORKS):
        config = ScenarioConfig(
            seed=60 + index,
            n_nodes=4,
            spreading_factor=7,
            warmup_s=300.0,
            duration_s=300.0,
            cooldown_s=20.0,
            report_interval_s=60.0,
            workload=WorkloadSpec(kind="periodic", interval_s=120.0),
            network_id=site(index),
        )
        results.append(run_scenario(config, server=server))
    http = MonitoringHttpServer(server, port=0, clock=lambda: NOW)
    http.start()
    yield http, server, results
    http.stop()
    server.close()


def get_json(http, path):
    with urllib.request.urlopen(f"{http.url}{path}", timeout=10) as response:
        return json.loads(response.read())


def get_raw(http, path):
    with urllib.request.urlopen(f"{http.url}{path}", timeout=10) as response:
        return response.read(), dict(response.headers)


class TestFleetOverview:
    def test_all_networks_resident(self, fleet):
        http, server, _ = fleet
        networks = get_json(http, "/api/v1/networks")
        assert [site(i) for i in range(N_NETWORKS)] == sorted(
            n for n in networks if n.startswith("site-")
        )

    def test_fleet_totals(self, fleet):
        http, server, _ = fleet
        overview = get_json(http, "/api/v1/fleet")
        assert overview["totals"]["networks"] >= N_NETWORKS
        assert overview["totals"]["batches_ingested"] > 0
        tiles = {tile["network"]: tile for tile in overview["networks"]}
        for index in range(N_NETWORKS):
            tile = tiles[site(index)]
            assert tile["nodes"] == 4
            assert tile["records_ingested"] > 0

    def test_overview_matches_in_process_api(self, fleet):
        http, server, _ = fleet
        over_http = get_json(http, "/api/v1/fleet")
        in_process = fleet_overview(server, now=NOW)
        assert over_http["totals"] == in_process["totals"]

    def test_overview_decays_without_ingest(self, fleet):
        # The cache key includes a coarse time bucket: with no ingest
        # at all, a later `now` still re-renders the document instead of
        # serving the frozen one, so node liveness can decay.
        _, server, _ = fleet
        fresh = fleet_overview(server, now=NOW)
        later = fleet_overview(server, now=NOW + 100_000.0)
        assert later["now"] == NOW + 100_000.0
        fresh_health = {t["network"]: t["health"] for t in fresh["networks"]}
        decayed = [
            tile
            for tile in later["networks"]
            if fresh_health.get(tile["network"]) is not None
        ]
        assert len(decayed) >= N_NETWORKS
        for tile in decayed:
            # Liveness (40 % of health) fell to zero for every node.
            assert tile["health"] < fresh_health[tile["network"]]

    def test_fleet_html_page(self, fleet):
        http, _, _ = fleet
        body, _ = get_raw(http, "/fleet")
        page = body.decode()
        for index in range(N_NETWORKS):
            assert site(index) in page


class TestNetworkScopedViews:
    def test_summary_is_per_network(self, fleet):
        http, _, results = fleet
        for index in (0, 3, 7):
            summary = get_json(http, f"/api/v1/networks/{site(index)}/summary")
            assert summary["network"] == site(index)
            assert len(summary["nodes"]) == 4

    def test_cross_tenant_isolation_over_http(self, fleet):
        http, server, results = fleet
        # Same node addresses exist at every site; each site's view must
        # contain only its own records.
        for index in (1, 5):
            store = server.store_for(site(index))
            nodes = get_json(http, f"/api/v1/networks/{site(index)}/nodes")
            assert {row["node"] for row in nodes} == set(store.nodes())
            counts = {
                row["node"]: row["packets"] for row in nodes if "packets" in row
            }
            # The scoped store is the single source for the scoped view.
            for node, packets in counts.items():
                assert packets == store.packet_record_count(node)

    def test_unknown_network_404(self, fleet):
        http, _, _ = fleet
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(http, "/api/v1/networks/no-such-site/summary")
        assert excinfo.value.code == 404

    def test_invalid_network_id_400(self, fleet):
        http, _, _ = fleet
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(http, "/api/v1/networks/bad%20id/summary")
        assert excinfo.value.code == 400

    def test_network_html_page(self, fleet):
        http, _, _ = fleet
        body, _ = get_raw(http, f"/networks/{site(2)}")
        assert site(2) in body.decode()


class TestHttpIngest:
    def make_batch(self, network_id, node=1, batch_seq=0):
        records = tuple(
            PacketRecord(
                node=node, seq=seq, timestamp=600.0 + seq, direction=Direction.IN,
                src=2, dst=node, next_hop=node, prev_hop=2, ptype=3, packet_id=seq,
                size_bytes=40, rssi_dbm=-95.0, snr_db=6.0,
            )
            for seq in range(5)
        )
        return RecordBatch(
            node=node, batch_seq=batch_seq, sent_at=610.0,
            packet_records=records, network_id=network_id,
        )

    def test_v1_ingest_creates_network(self, fleet):
        http, server, _ = fleet
        client = HttpIngestClient(http.url, network_id="ota-site")
        result = client.ingest_json(self.make_batch("ota-site").to_json_bytes())
        assert result.ok
        assert client.posts_ok == 1
        assert "ota-site" in server.networks()
        nodes = get_json(http, "/api/v1/networks/ota-site/nodes")
        assert [row["node"] for row in nodes] == [1]

    def test_cross_network_mismatch_rejected(self, fleet):
        http, server, _ = fleet
        raw = self.make_batch(site(0), batch_seq=99).to_json_bytes()
        request = urllib.request.Request(
            f"{http.url}/api/v1/networks/{site(1)}/ingest", data=raw, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
