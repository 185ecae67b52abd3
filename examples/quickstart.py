#!/usr/bin/env python3
"""Quickstart: monitor a small LoRa mesh.

Builds a 9-node LoRa mesh (LoRaMesher-style distance-vector routing on a
simulated SX127x PHY), attaches the paper's monitoring client to every
node with an out-of-band (WiFi/HTTP-style) uplink, runs an hour of
periodic sensor traffic, and prints the server's dashboard.

Run:
    python examples/quickstart.py
"""

from repro.api import Dashboard, ScenarioConfig, WorkloadSpec, run_scenario


def main() -> None:
    config = ScenarioConfig(
        seed=1,
        n_nodes=9,                 # 3x3 grid, gateway in the corner (node 1)
        spreading_factor=7,        # EU868, SF7/125 kHz
        warmup_s=900.0,            # let routing converge
        duration_s=3600.0,         # one hour of measured traffic
        report_interval_s=60.0,    # monitoring clients flush every minute
        workload=WorkloadSpec(
            kind="periodic",       # every node reports to the gateway
            interval_s=120.0,
            payload_bytes=24,
        ),
    )

    print("running: 9-node mesh, 1 h of traffic, monitoring out-of-band ...")
    result = run_scenario(config)

    print(f"\nground truth  : {result.truth.total_msg_sent} messages sent, "
          f"PDR {result.truth.msg_pdr:.1%}, "
          f"mean latency {result.truth.mean_latency_s:.2f}s")
    print(f"telemetry     : {result.telemetry_records_stored()} packet records "
          f"on the server ({result.telemetry_delivery_ratio():.0%} of captured)")

    dashboard = Dashboard(result.store, report_interval_s=config.report_interval_s)
    print()
    print(dashboard.render_text(result.sim.now))

    print("\nTopology as the server reconstructed it (Graphviz DOT):")
    print(dashboard.render_dot())


if __name__ == "__main__":
    main()
