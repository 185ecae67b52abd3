#!/usr/bin/env python3
"""Serve the monitoring dashboard over real HTTP.

Runs a monitored scenario, then exposes the server's data through the
HTTP JSON API — the wire path a web dashboard (or curl) would use — and
demonstrates a client POSTing a telemetry batch to
/api/v1/networks/default/ingest, exactly like the ESP32 client in the
paper.

Run:
    python examples/live_dashboard.py            # demo mode: serve, probe, exit
    python examples/live_dashboard.py --serve    # keep serving until Ctrl-C
"""

import json
import sys
import time
import urllib.request

from repro.api import (
    Direction,
    MonitoringHttpServer,
    PacketRecord,
    RecordBatch,
    ScenarioConfig,
    WorkloadSpec,
    run_scenario,
)

#: Routes of the single network this demo monitors.
V1 = "/api/v1/networks/default"


def fetch(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def main() -> None:
    print("simulating a monitored 16-node mesh ...")
    result = run_scenario(ScenarioConfig(
        seed=5,
        n_nodes=16,
        spreading_factor=7,
        warmup_s=1200.0,
        duration_s=1800.0,
        report_interval_s=60.0,
        workload=WorkloadSpec(kind="periodic", interval_s=120.0, payload_bytes=24),
    ))

    frozen_now = result.sim.now
    http_server = MonitoringHttpServer(result.server, port=0, clock=lambda: frozen_now)
    http_server.start()
    print(f"dashboard serving at {http_server.url}")

    try:
        summary = fetch(f"{http_server.url}{V1}/summary")
        print(f"\nGET {V1}/summary -> network health "
              f"{summary['network_health']:.0f}/100, "
              f"PDR {summary['network_pdr']:.1%}, "
              f"{len(summary['nodes'])} nodes, {len(summary['links'])} links")

        nodes = fetch(f"{http_server.url}{V1}/nodes")
        print(f"GET {V1}/nodes -> first row:", json.dumps(nodes[0]))

        # A "real" client POSTing one batch, like the paper's ESP32 node.
        record = PacketRecord(
            node=99, seq=0, timestamp=frozen_now, direction=Direction.IN,
            src=3, dst=99, next_hop=99, prev_hop=3, ptype=3, packet_id=1,
            size_bytes=42, rssi_dbm=-101.5, snr_db=6.0,
        )
        batch = RecordBatch(
            node=99, batch_seq=0, sent_at=frozen_now, packet_records=(record,)
        ).to_json_bytes()
        request = urllib.request.Request(
            f"{http_server.url}{V1}/ingest", data=batch, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            outcome = json.loads(response.read())
        print(f"POST {V1}/ingest -> accepted:", outcome)

        nodes = fetch(f"{http_server.url}{V1}/nodes")
        print(f"node 99 now visible to the server: "
              f"{any(row['node'] == 99 for row in nodes)}")

        if "--serve" in sys.argv:
            print(f"\nopen {http_server.url}/ in a browser; Ctrl-C to stop")
            while True:
                time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        http_server.stop()
        print("server stopped")


if __name__ == "__main__":
    main()
