"""Command-line interface.

Subcommands::

    repro sim simulate   run a scenario and print the dashboard
    repro sim serve      run a scenario, then serve the dashboard over HTTP
    repro sim airtime    print LoRa time-on-air for given settings
    repro sim dot        run a scenario and print the topology as DOT
    repro sim analyze    run a scenario and print the pathology report
    repro sim export     run a scenario and export telemetry (JSONL/CSV)

(Also runnable as ``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.mesh.config import MeshConfig
from repro.monitor.dashboard import Dashboard
from repro.phy.airtime import time_on_air
from repro.phy.params import LoRaParams
from repro.scenario.config import MonitorMode, ScenarioConfig, WorkloadSpec
from repro.scenario.runner import run_scenario
from repro.sim.topology import Placement


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="master random seed")
    parser.add_argument("--nodes", type=int, default=16, help="number of mesh nodes")
    parser.add_argument(
        "--placement", choices=[p.value for p in Placement], default="grid",
        help="node placement strategy",
    )
    parser.add_argument("--sf", type=int, default=7, help="LoRa spreading factor (7-12)")
    parser.add_argument(
        "--protocol", choices=["dv", "flood"], default="dv",
        help="mesh protocol: distance-vector or managed flooding",
    )
    parser.add_argument(
        "--monitor", choices=[m.value for m in MonitorMode], default="oob",
        help="telemetry mode: out-of-band, in-band or none",
    )
    parser.add_argument(
        "--report-interval", type=float, default=60.0,
        help="monitoring report interval in seconds",
    )
    parser.add_argument("--warmup", type=float, default=1200.0, help="warmup seconds")
    parser.add_argument("--duration", type=float, default=1800.0, help="measured seconds")
    parser.add_argument(
        "--traffic-interval", type=float, default=120.0,
        help="application message interval per node (seconds)",
    )
    parser.add_argument("--payload", type=int, default=24, help="application payload bytes")
    parser.add_argument(
        "--capture-trace", action="store_true",
        help="enable the flight recorder + span profiler (see repro trace)",
    )


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        seed=args.seed,
        n_nodes=args.nodes,
        placement=Placement(args.placement),
        spreading_factor=args.sf,
        protocol=args.protocol,
        monitor_mode=MonitorMode(args.monitor),
        report_interval_s=args.report_interval,
        warmup_s=args.warmup,
        duration_s=args.duration,
        mesh=MeshConfig(),
        workload=WorkloadSpec(
            kind="periodic",
            interval_s=args.traffic_interval,
            payload_bytes=args.payload,
        ),
        capture_trace=getattr(args, "capture_trace", False),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    print(
        f"simulating {config.n_nodes} nodes, SF{config.spreading_factor}, "
        f"protocol={config.protocol}, monitor={config.monitor_mode.value} ...",
        file=sys.stderr,
    )
    result = run_scenario(config)
    print(f"ground-truth message PDR: {result.truth.msg_pdr:.1%}", file=sys.stderr)
    if result.store is not None:
        dashboard = Dashboard(
            result.store, report_interval_s=config.report_interval_s,
            monitor_server=result.server, flight_recorder=result.recorder,
        )
        print(dashboard.render_text(result.sim.now))
    else:
        print("(monitoring disabled; no dashboard)", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.monitor.httpapi import MonitoringHttpServer
    from repro.monitor.transport.http import HttpIngestTransport
    from repro.monitor.transport.udp import UdpIngestTransport

    config = _config_from_args(args)
    if config.monitor_mode is MonitorMode.NONE:
        print("serve requires monitoring enabled", file=sys.stderr)
        return 2
    result = run_scenario(config)
    frozen_now = result.sim.now
    http_server = MonitoringHttpServer(
        result.server, port=args.port, clock=lambda: frozen_now
    )
    http_transport = result.server.attach_transport(HttpIngestTransport(http_server))
    http_transport.start()
    udp_transport = None
    if args.udp_port is not None:
        udp_transport = result.server.attach_transport(
            UdpIngestTransport(
                result.server, port=args.udp_port, codec=args.codec
            )
        )
        udp_transport.start()
    print(f"dashboard at {http_server.url}  (Ctrl-C to stop)")
    print(
        f"live stream (SSE) at {http_server.url}/api/v1/stream (fleet) "
        f"and {http_server.url}/api/v1/networks/<id>/stream (per network)"
    )
    if udp_transport is not None:
        print(
            f"udp ingest on port {udp_transport.port} "
            f"(codec={args.codec}; see PROTOCOL.md for the datagram format)"
        )
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        if udp_transport is not None:
            udp_transport.stop()
        http_transport.stop()
    return 0


def cmd_airtime(args: argparse.Namespace) -> int:
    params = LoRaParams(
        spreading_factor=args.sf,
        bandwidth_hz=args.bw * 1000,
        coding_rate=args.cr,
    )
    airtime = time_on_air(params, args.payload)
    print(f"{params.describe()} payload={args.payload}B -> {airtime * 1000:.2f} ms")
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if config.monitor_mode is MonitorMode.NONE:
        print("dot requires monitoring enabled", file=sys.stderr)
        return 2
    result = run_scenario(config)
    dashboard = Dashboard(result.store, report_interval_s=config.report_interval_s)
    print(dashboard.render_dot())
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import pathology, planning

    config = _config_from_args(args)
    if config.monitor_mode is MonitorMode.NONE:
        print("analyze requires monitoring enabled", file=sys.stderr)
        return 2
    result = run_scenario(config)
    store = result.store
    print(f"=== pathology report ({config.n_nodes} nodes, "
          f"SF{config.spreading_factor}) ===")
    relays = pathology.congested_relays(store)
    print(f"congested relays: {len(relays)}")
    for relay in relays:
        print(f"  node {relay.node}: retx {relay.retransmission_rate:.0%}, "
              f"airtime share {relay.airtime_share:.0%}")
    hidden = pathology.hidden_terminal_pairs(store, min_frames=20)
    print(f"hidden-terminal pairs: {len(hidden)}")
    for pair in hidden[:10]:
        print(f"  {pair.tx_a} <-x-> {pair.tx_b} via receiver {pair.shared_receiver}")
    asymmetric = pathology.asymmetric_links(store, min_frames=10)
    print(f"asymmetric/one-way links: {len(asymmetric)}")
    starving = pathology.starving_sources(store)
    print(f"starving sources: {len(starving)}")
    for source in starving:
        print(f"  node {source.node}: PDR {source.pdr:.0%} "
              f"(median {source.median_pdr:.0%})")
    recommendations = planning.sf_recommendations(store, current_sf=config.spreading_factor)
    downgrades = [r for r in recommendations if r.recommended_sf < r.current_sf]
    print(f"SF downgrade candidates: {len(downgrades)}/{len(recommendations)}")
    candidates = planning.best_gateway_candidates(store, top=3)
    if candidates:
        best = candidates[0]
        print(f"best gateway placement: node {best.node} "
              f"({best.mean_hops_to_all:.2f} mean hops)")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.monitor.export import (
        export_jsonl,
        export_packet_records_csv,
        export_status_records_csv,
    )

    config = _config_from_args(args)
    if config.monitor_mode is MonitorMode.NONE:
        print("export requires monitoring enabled", file=sys.stderr)
        return 2
    result = run_scenario(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_jsonl = export_jsonl(result.store, out_dir / "telemetry.jsonl")
    n_packets = export_packet_records_csv(result.store, out_dir / "packets.csv")
    n_status = export_status_records_csv(result.store, out_dir / "status.csv")
    print(f"wrote {n_jsonl} records to {out_dir}/telemetry.jsonl "
          f"(+ {n_packets} packet rows, {n_status} status rows as CSV)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sim",
        description="LoRa mesh network monitoring (ICDCS 2022 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sim_parser = subparsers.add_parser("simulate", help="run a scenario, print the dashboard")
    _add_scenario_args(sim_parser)
    sim_parser.set_defaults(func=cmd_simulate)

    serve_parser = subparsers.add_parser("serve", help="run a scenario, serve it over HTTP")
    _add_scenario_args(serve_parser)
    serve_parser.add_argument("--port", type=int, default=8080, help="HTTP port")
    serve_parser.add_argument(
        "--udp-port", type=int, default=None,
        help="also accept telemetry datagrams on this UDP port (0 = any free port)",
    )
    serve_parser.add_argument(
        "--codec", choices=["binary", "json"], default="binary",
        help="wire encoding expected on the UDP ingest port",
    )
    serve_parser.set_defaults(func=cmd_serve)

    airtime_parser = subparsers.add_parser("airtime", help="LoRa time-on-air calculator")
    airtime_parser.add_argument("--sf", type=int, default=7)
    airtime_parser.add_argument("--bw", type=int, default=125, help="bandwidth in kHz")
    airtime_parser.add_argument("--cr", type=int, default=1, help="coding rate 1..4 (4/5..4/8)")
    airtime_parser.add_argument("--payload", type=int, default=24, help="payload bytes")
    airtime_parser.set_defaults(func=cmd_airtime)

    dot_parser = subparsers.add_parser("dot", help="print reconstructed topology as DOT")
    _add_scenario_args(dot_parser)
    dot_parser.set_defaults(func=cmd_dot)

    analyze_parser = subparsers.add_parser("analyze", help="run + print pathology report")
    _add_scenario_args(analyze_parser)
    analyze_parser.set_defaults(func=cmd_analyze)

    export_parser = subparsers.add_parser("export", help="run + export telemetry")
    _add_scenario_args(export_parser)
    export_parser.add_argument("--out", default="telemetry-export", help="output directory")
    export_parser.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
