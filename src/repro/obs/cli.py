"""``repro trace``: interrogate packet flight recordings.

Subcommands::

    repro trace export     run a scenario with tracing, write NDJSON captures
    repro trace why        causal timeline + terminal verdict per message
    repro trace drops      drop accounting by reason / link / node
    repro trace spans      engine span profile (where the wall-clock went)
    repro trace validate   structural check of a capture file

``why``, ``drops`` and ``spans`` work in two modes: **offline** against a
capture produced by ``export`` (or by a campaign run with a
``capture_trace`` axis) via ``--trace``/``--spans-file``, or **live** by
running the scenario described by the CLI flags right now.

Examples::

    repro trace export --nodes 20 --out trace.ndjson --spans-out spans.ndjson
    repro trace why undelivered --trace trace.ndjson
    repro trace why 3:17402 --trace trace.ndjson
    repro trace drops --by link --trace trace.ndjson --json
    repro trace spans --top 10 --spans-file spans.ndjson
    repro trace validate trace.ndjson
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.cli import _add_scenario_args, _config_from_args
from repro.obs.ndjson import (
    CaptureFormatError,
    export_trace,
    read_trace,
    replay_into_recorder,
    validate_spans_file,
    validate_trace_file,
)
from repro.obs.recorder import FlightRecorder, MessageTrace
from repro.obs.spans import SpanProfiler
from repro.scenario.config import Environment, WorkloadSpec


def _add_lossy_args(parser: argparse.ArgumentParser) -> None:
    """Extra scenario knobs beyond ``repro sim``'s shared set."""
    parser.add_argument(
        "--environment", choices=[e.value for e in Environment], default="suburban",
        help="path-loss preset (urban is the lossy one)",
    )
    parser.add_argument("--tx-power", type=float, default=14.0, help="TX power dBm")
    parser.add_argument(
        "--traffic-kind", choices=["periodic", "poisson", "bursty", "event", "none"],
        default="periodic", help="workload kind",
    )
    parser.add_argument(
        "--pattern", choices=["convergecast", "random_pairs"], default="convergecast",
        help="traffic pattern",
    )
    parser.add_argument("--pairs", type=int, default=10, help="pair count for random_pairs")
    parser.add_argument("--rate", type=float, default=0.01, help="poisson msgs/s per source")


def _scenario_recorder(args: argparse.Namespace) -> Tuple[FlightRecorder, SpanProfiler]:
    """Run the scenario described by ``args`` with tracing forced on."""
    from repro.scenario.runner import run_scenario

    config = _config_from_args(args).with_overrides(
        capture_trace=True,
        environment=Environment(args.environment),
        tx_power_dbm=args.tx_power,
        workload=WorkloadSpec(
            kind=args.traffic_kind,
            pattern=args.pattern,
            interval_s=args.traffic_interval,
            rate_per_s=args.rate,
            payload_bytes=args.payload,
            n_pairs=args.pairs,
        ),
    )
    print(
        f"running {config.n_nodes}-node scenario "
        f"({config.environment.value}, {config.protocol}) ...",
        file=sys.stderr,
    )
    result = run_scenario(config)
    result.close()
    assert result.recorder is not None and result.profiler is not None
    return result.recorder, result.profiler


def _load_recorder(args: argparse.Namespace) -> FlightRecorder:
    if args.trace is not None:
        recorder = FlightRecorder()
        replay_into_recorder(args.trace, recorder)
        return recorder
    recorder, _ = _scenario_recorder(args)
    return recorder


# -- subcommands ---------------------------------------------------------------


def cmd_export(args: argparse.Namespace) -> int:
    from repro.scenario.runner import Scenario

    config = _config_from_args(args).with_overrides(
        capture_trace=True,
        environment=Environment(args.environment),
        tx_power_dbm=args.tx_power,
        workload=WorkloadSpec(
            kind=args.traffic_kind,
            pattern=args.pattern,
            interval_s=args.traffic_interval,
            rate_per_s=args.rate,
            payload_bytes=args.payload,
            n_pairs=args.pairs,
        ),
    )
    scenario = Scenario(config)
    result = scenario.run()
    result.close()
    meta = {
        "seed": config.seed,
        "n_nodes": config.n_nodes,
        "protocol": config.protocol,
        "environment": config.environment.value,
    }
    n_events = export_trace(result.trace, args.out, meta=meta)
    print(f"wrote {n_events} events to {args.out}")
    if args.spans_out is not None:
        n_spans = result.profiler.export_ndjson(args.spans_out)
        print(f"wrote {n_spans} span aggregates to {args.spans_out}")
    return 0


def _selected_messages(recorder: FlightRecorder, token: str) -> List[MessageTrace]:
    if token == "all":
        return recorder.messages()
    if token == "undelivered":
        return recorder.undelivered()
    return recorder.find(token)


def cmd_why(args: argparse.Namespace) -> int:
    recorder = _load_recorder(args)
    messages = _selected_messages(recorder, args.msg_id)
    if not messages:
        if args.msg_id in ("all", "undelivered"):
            # An empty selector result is an answer, not an error.
            print("[]" if args.json else f"(no {args.msg_id} messages)")
            return 0
        print(f"no message matches {args.msg_id!r}", file=sys.stderr)
        return 1
    if args.json:
        payload = [
            {
                "trace_id": msg.trace_id,
                "origin": msg.origin,
                "dst": msg.dst,
                "msg_id": msg.msg_id,
                "verdict": recorder.verdict(msg),
                "delivered_at": msg.delivered_at,
                "timeline": [
                    {"t": e.time, "node": e.node, "what": e.what, "detail": e.detail}
                    for e in recorder.timeline(msg)
                ],
            }
            for msg in messages
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for msg in messages:
        print(recorder.explain(msg))
        print()
    return 0


def cmd_drops(args: argparse.Namespace) -> int:
    recorder = _load_recorder(args)
    tables = {
        "verdicts": {k: v for k, v in recorder.verdict_counts().items() if v},
        args.by: recorder.drop_counts(args.by),
    }
    if args.json:
        print(json.dumps(tables, indent=2, sort_keys=True))
        return 0
    print(f"message verdicts ({len(recorder.messages())} messages):")
    for verdict, count in tables["verdicts"].items():
        print(f"  {verdict:>16}  {count}")
    print(f"\nraw drop events by {args.by}:")
    for key, count in sorted(tables[args.by].items(), key=lambda kv: -kv[1]):
        print(f"  {key:>16}  {count}")
    return 0


def cmd_spans(args: argparse.Namespace) -> int:
    if args.spans_file is not None:
        validate_spans_file(args.spans_file)
        with open(args.spans_file, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        lines.sort(key=lambda row: -float(row.get("wall_s", 0.0)))
        rows = lines[: args.top]
    else:
        _, profiler = _scenario_recorder(args)
        rows = [stats.to_json_dict() for stats in profiler.top(args.top)]
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print(f"{'span':<48} {'count':>8} {'wall_s':>10} {'mean_us':>9} {'sim_s':>10}")
    for row in rows:
        mean_us = (
            1e6 * float(row["wall_s"]) / row["count"] if row.get("count") else 0.0
        )
        print(
            f"{row['name']:<48} {row['count']:>8} {float(row['wall_s']):>10.4f} "
            f"{mean_us:>9.1f} {float(row.get('sim_s', 0.0)):>10.1f}"
        )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    path = args.file
    try:
        if args.kind == "spans":
            summary = validate_spans_file(path)
        elif args.kind == "trace":
            summary = validate_trace_file(path)
        else:  # auto-detect on the first line's schema
            try:
                summary = validate_trace_file(path)
            except CaptureFormatError:
                summary = validate_spans_file(path)
    except CaptureFormatError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    return 0


# -- wiring --------------------------------------------------------------------


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="analyse this NDJSON capture instead of running a scenario",
    )
    _add_scenario_args(parser)
    _add_lossy_args(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="packet flight recorder: causal lifecycle tracing for LoRa mesh runs",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    export_parser = subparsers.add_parser("export", help="run + write NDJSON captures")
    _add_scenario_args(export_parser)
    _add_lossy_args(export_parser)
    export_parser.add_argument("--out", default="trace.ndjson", help="trace capture path")
    export_parser.add_argument(
        "--spans-out", default=None, help="also write the span profile here"
    )
    export_parser.set_defaults(func=cmd_export)

    why_parser = subparsers.add_parser("why", help="explain one message's fate")
    why_parser.add_argument(
        "msg_id",
        help="trace id 'origin:msg_id', bare msg_id, 'all' or 'undelivered'",
    )
    why_parser.add_argument("--json", action="store_true", help="machine-readable output")
    _add_source_args(why_parser)
    why_parser.set_defaults(func=cmd_why)

    drops_parser = subparsers.add_parser("drops", help="drop-reason accounting")
    drops_parser.add_argument(
        "--by", choices=["reason", "link", "node"], default="reason",
        help="grouping for the raw drop-event table",
    )
    drops_parser.add_argument("--json", action="store_true", help="machine-readable output")
    _add_source_args(drops_parser)
    drops_parser.set_defaults(func=cmd_drops)

    spans_parser = subparsers.add_parser("spans", help="engine span profile")
    spans_parser.add_argument("--top", type=int, default=15, help="rows to show")
    spans_parser.add_argument(
        "--spans-file", default=None, metavar="FILE",
        help="read a span NDJSON export instead of running a scenario",
    )
    spans_parser.add_argument("--json", action="store_true", help="machine-readable output")
    _add_scenario_args(spans_parser)
    _add_lossy_args(spans_parser)
    spans_parser.set_defaults(func=cmd_spans)

    validate_parser = subparsers.add_parser("validate", help="check a capture file")
    validate_parser.add_argument("file", help="NDJSON capture to validate")
    validate_parser.add_argument(
        "--kind", choices=["auto", "trace", "spans"], default="auto",
        help="expected capture flavour",
    )
    validate_parser.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
