#!/usr/bin/env python3
"""Campus/community-network deployment study.

Models the deployment the paper's group (guifi.net community networks)
cares about: 25 nodes clustered across buildings, mixed sensor workloads
(periodic environment sensors, bursty camera traps, rare alarms), a
gateway with Internet access, and the monitoring system watching it all.

Demonstrates the administrator's workflow on top of the dashboard:
network health, per-link quality, traffic composition, duty-cycle
pressure and capacity headroom.

Run:
    python examples/campus_deployment.py
"""

from repro.monitor import health, metrics
from repro.api import Dashboard, Scenario, ScenarioConfig, WorkloadSpec
from repro.api import Placement
from repro.workloads.generators import BurstyWorkload, EventWorkload, PeriodicWorkload


def main() -> None:
    config = ScenarioConfig(
        seed=7,
        n_nodes=25,
        placement=Placement.CLUSTERED,
        spreading_factor=7,
        warmup_s=1800.0,
        duration_s=1.0,           # traffic is wired manually below
        cooldown_s=1.0,
        report_interval_s=60.0,
        workload=WorkloadSpec(kind="none"),
    )
    scenario = Scenario(config)
    sim = scenario.sim
    gateway = config.gateway

    # Mixed workloads: 2/3 periodic sensors, some bursty camera traps,
    # a few rare-alarm nodes.
    workloads = []
    for index, (address, node) in enumerate(sorted(scenario.nodes.items())):
        if address == gateway:
            continue
        stream = scenario.rng.stream(f"campus.{address}")
        if index % 5 == 0:
            workloads.append(BurstyWorkload(
                sim, node, gateway, burst_interval_s=1200.0, burst_size=4,
                payload_bytes=64, rng=stream,
            ))
        elif index % 7 == 0:
            workloads.append(EventWorkload(
                sim, node, gateway, check_interval_s=300.0,
                event_probability=0.05, payload_bytes=16, rng=stream,
            ))
        else:
            workloads.append(PeriodicWorkload(
                sim, node, gateway, interval_s=300.0, payload_bytes=24, rng=stream,
            ))

    print("warmup: routing convergence ...")
    sim.run(until=config.warmup_s)
    for workload in workloads:
        workload.start()
    print("running 2 h of mixed campus traffic ...")
    sim.run(until=sim.now + 7200.0)

    dashboard = Dashboard(
        scenario.store,
        report_interval_s=config.report_interval_s,
        monitor_server=scenario.server,
    )
    print()
    print(dashboard.render_text(sim.now))

    # -- administrator's deep dives ------------------------------------------
    print("\n=== capacity headroom (duty-cycle pressure per node) ===")
    duty = metrics.duty_cycle_by_node(scenario.store, window_s=3600.0, until=sim.now)
    for node, utilisation in sorted(duty.items(), key=lambda kv: -kv[1])[:5]:
        bar = "#" * int(utilisation / 0.01 * 20)
        print(f"  node {node:2d}: {utilisation:6.2%} of airtime  |{bar}")
    print("  (EU868 g1 cap is 1% — nodes near the top relay the clusters)")

    print("\n=== weakest radio links (worth re-siting antennas) ===")
    links = sorted(
        metrics.link_quality(scenario.store).values(), key=lambda link: link.rssi_mean
    )
    for link in links[:5]:
        print(f"  {link.tx:2d} -> {link.rx:2d}: mean RSSI {link.rssi_mean:7.1f} dBm, "
              f"SNR {link.snr_mean:5.1f} dB over {link.frames} frames")

    print("\n=== network health ===")
    scores = health.network_health(scenario.store, sim.now, config.report_interval_s)
    network_score = health.network_health_score(scores)
    worst = sorted(scores.values(), key=lambda score: score.score)[:3]
    print(f"  overall: {network_score:.0f}/100")
    for score in worst:
        print(f"  weakest node {score.node}: {score.score:.0f} "
              f"(liveness={score.liveness}, delivery={score.delivery})")

    print("\n=== traffic composition (protocol overhead vs payload) ===")
    for row in metrics.type_breakdown(scenario.store):
        print(f"  {row.name:9s} {row.frames_out:6d} frames  {row.bytes_out:8d} B  "
              f"{row.airtime_s:7.2f} s airtime")


if __name__ == "__main__":
    main()
