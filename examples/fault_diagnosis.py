#!/usr/bin/env python3
"""Fault diagnosis with the monitoring system.

The point of the paper's tool: when something breaks in a LoRa mesh you
cannot ssh into, the telemetry is all you have.  This example breaks the
network twice and shows each fault becoming visible on the server:

1. A central relay dies — the server's silent-node alert fires, the
   health score collapses, and the route-count telemetry shows the mesh
   shrinking.
2. The node reboots — its client reports again, the alert clears and
   routes rebuild.

Every alert here is the server's own: the one its ingest path and paced
sweep raise, with the server time it was raised at.

Run:
    python examples/fault_diagnosis.py
"""

from repro.analysis.anomaly import detect_anomalies
from repro.monitor import health
from repro.api import (
    Dashboard,
    Scenario,
    ScenarioConfig,
    WorkloadSpec,
)

VICTIM = 13  # centre of the 5x5 grid: the busiest relay


def silent_alerts(server, network_id):
    """The server's active silent-node alerts of ``network_id``."""
    return [
        alert for alert in server.active_alerts(network_id)
        if alert["rule"] == "silent_node"
    ]


def main() -> None:
    config = ScenarioConfig(
        seed=3,
        n_nodes=25,
        spreading_factor=7,
        warmup_s=1800.0,
        duration_s=1.0,
        cooldown_s=1.0,
        report_interval_s=60.0,
        workload=WorkloadSpec(kind="none"),
    )
    scenario = Scenario(config)
    sim = scenario.sim
    server = scenario.server
    network = config.network_id

    print("phase 0: healthy network, 30 min warmup ...")
    sim.run(until=config.warmup_s)
    print(f"  silent-node alerts: {len(silent_alerts(server, network))} (expected 0)")
    scores = health.network_health(scenario.store, sim.now, config.report_interval_s)
    print(f"  node {VICTIM} health: {scores[VICTIM].score:.0f}/100")
    routes_before = scenario.store.latest_status(1).route_count
    print(f"  node 1 sees {routes_before} routes")

    print(f"\nphase 1: node {VICTIM} loses power ...")
    fault_time = sim.now
    scenario.nodes[VICTIM].fail()
    scenario.clients[VICTIM].stop()

    # The server's silence threshold is 3 report intervals plus 10 s; its
    # paced sweep raises the alert within one more interval.
    detected = None
    while detected is None and sim.now < fault_time + 1800:
        sim.run(until=sim.now + 10.0)
        for alert in silent_alerts(server, network):
            if alert["node"] == VICTIM:
                detected = alert["raised_at"]
                print(f"  ALERT after {detected - fault_time:.0f}s: "
                      f"[{alert['severity']}] {alert['rule']} node {alert['node']}: "
                      f"{alert['message']}")
    if detected is None:
        raise SystemExit("fault was never detected — that's a bug")

    # Wait past the route timeout (900 s default) so stale routes through
    # the dead relay are flushed everywhere.
    sim.run(until=sim.now + 1500.0)
    scores = health.network_health(scenario.store, sim.now, config.report_interval_s)
    print(f"  node {VICTIM} health is now {scores[VICTIM].score:.0f}/100")
    routes_after = scenario.store.latest_status(1).route_count
    print(f"  node 1 now sees {routes_after} routes (was {routes_before}) — "
          f"the dead relay has aged out of the tables")

    series = scenario.store.status_series(1, ["route_count"])
    anomalies = detect_anomalies(series, "route_count", window=8, threshold=3.0)
    if anomalies:
        print(f"  anomaly detector flags the route-table drop at "
              f"t={anomalies[0].timestamp:.0f}s (z={anomalies[0].z_score:.1f})")

    print(f"\nphase 2: node {VICTIM} comes back ...")
    recovery_time = sim.now
    scenario.nodes[VICTIM].recover()
    scenario.clients[VICTIM].restart()
    sim.run(until=sim.now + 1200.0)
    still_firing = [
        alert for alert in silent_alerts(server, network) if alert["node"] == VICTIM
    ]
    print(f"  alert cleared: {not still_firing}")
    latest = scenario.store.latest_status(VICTIM)
    if latest is None or latest.timestamp < recovery_time:
        raise SystemExit(
            f"node {VICTIM}'s latest stored status predates its recovery at "
            f"t={recovery_time:.0f}s — its post-reboot telemetry was lost"
        )
    scores = health.network_health(scenario.store, sim.now, config.report_interval_s)
    print(f"  node {VICTIM} reports again (latest status t={latest.timestamp:.0f}s); "
          f"health recovered to {scores[VICTIM].score:.0f}/100")

    print("\nfinal dashboard:")
    dashboard = Dashboard(
        scenario.store,
        report_interval_s=config.report_interval_s,
        monitor_server=server,
    )
    print(dashboard.render_text(sim.now))


if __name__ == "__main__":
    main()
