"""``repro campaign`` — run, inspect and report experiment campaigns.

Subcommands::

    repro campaign run    SPEC.json [--workers N] [--resume] [--out FILE]
    repro campaign status SPEC.json
    repro campaign report SPEC.json [--allow-partial] [--out FILE]

``run`` executes the campaign (optionally resuming from the cache) and
emits the aggregate report; ``status`` says how much of the grid is
cached; ``report`` aggregates from the cache without running anything.
All three take ``--cache-dir`` (default ``.campaign-cache``) and
``--json`` for machine-readable output.

Exit codes: 0 success, 1 campaign/state error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.campaign.aggregate import render_report_json
from repro.campaign.hashing import canonical_json
from repro.campaign.progress import ProgressReporter
from repro.campaign.scheduler import CampaignPlan, CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.errors import ReproError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2

#: headline metrics shown in the text table (full set lives in the JSON)
_TABLE_METRICS = (
    ("msg_pdr", "msg_pdr"),
    ("mean_latency_s", "latency_s"),
    ("airtime_per_node_s", "airtime/node_s"),
    ("uplink_bytes_per_node_per_s", "uplink_B/s/node"),
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", help="campaign spec JSON file")
    parser.add_argument(
        "--cache-dir", default=".campaign-cache",
        help="result cache directory (default: %(default)s)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON on stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="deterministic parallel experiment sweeps with resumable caching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the campaign and report")
    _add_common(run)
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default: %(default)s; results are identical "
        "for any value)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="reuse cached runs and compute only what is missing",
    )
    run.add_argument("--out", help="write the aggregate report JSON to this file")
    run.add_argument(
        "--quiet", action="store_true", help="suppress progress/ETA lines"
    )
    run.add_argument(
        "--trace-dir",
        help="write per-run NDJSON flight-recorder captures here (only runs "
        "whose config sets capture_trace, e.g. via an axis, produce files; "
        "inspect them with repro trace)",
    )

    status = sub.add_parser("status", help="show cached vs missing runs")
    _add_common(status)

    report = sub.add_parser("report", help="aggregate from the cache only")
    _add_common(report)
    report.add_argument(
        "--allow-partial", action="store_true",
        help="aggregate whatever is cached instead of failing on gaps",
    )
    report.add_argument("--out", help="write the aggregate report JSON to this file")
    return parser


# -- rendering -----------------------------------------------------------------


def _format_stat(stats: Optional[Mapping[str, Any]]) -> str:
    if not stats or stats.get("mean") is None:
        return "-"
    mean = stats["mean"]
    ci95 = stats.get("ci95")
    if ci95 is not None:
        return f"{mean:.4g}±{ci95:.2g}"
    return f"{mean:.4g}"


def render_report_text(report: Mapping[str, Any]) -> str:
    """Fixed-width table of headline metrics, one row per grid point."""
    headers = ["point", "n"] + [label for _, label in _TABLE_METRICS]
    rows: List[List[str]] = []
    for point in report["points"]:
        row = [point["key"] or "(base)", str(point["replicates"])]
        for metric, _ in _TABLE_METRICS:
            row.append(_format_stat(point["metrics"].get(metric)))
        rows.append(row)
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        f"campaign {report['campaign']}: {report['n_points']} points x "
        f"{report['replicates']} replicates = {report['n_runs']} runs "
        f"({report['n_runs_aggregated']} aggregated)",
        f"spec digest {report['spec_digest'][:16]}  code {report['code_version']}",
        "",
        " | ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(" | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def _status_payload(spec: CampaignSpec, plan: CampaignPlan) -> Dict[str, Any]:
    return {
        "campaign": spec.name,
        "spec_digest": spec.spec_digest(),
        "n_points": spec.n_points,
        "replicates": spec.replicates,
        "n_runs": plan.n_runs,
        "cached": plan.n_cached,
        "missing": plan.n_missing,
        "complete": plan.complete,
    }


def _write_report(report: Mapping[str, Any], out: Optional[str], as_json: bool) -> None:
    rendered = render_report_json(report)
    if out:
        Path(out).write_text(rendered, encoding="utf-8")
    if as_json:
        sys.stdout.write(rendered)
    else:
        print(render_report_text(report))
        if out:
            print(f"report written to {out}")


# -- commands ------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    spec = CampaignSpec.from_file(args.spec)
    reporter = ProgressReporter(
        total=spec.n_runs, enabled=not args.quiet and not args.json
    )
    runner = CampaignRunner(
        spec,
        cache_dir=args.cache_dir,
        workers=args.workers,
        progress=lambda run, from_cache: reporter.update(from_cache),
        trace_dir=args.trace_dir,
    )
    reporter.start()
    try:
        report = runner.run(resume=args.resume)
    finally:
        reporter.finish()
    stats = runner.last_stats
    if not args.json:
        print(
            f"executed {stats.computed} run(s), reused {stats.from_cache} cached, "
            f"workers={runner.workers}"
        )
    _write_report(report, args.out, args.json)
    return EXIT_OK


def _cmd_status(args: argparse.Namespace) -> int:
    spec = CampaignSpec.from_file(args.spec)
    plan = CampaignRunner(spec, cache_dir=args.cache_dir).plan()
    payload = _status_payload(spec, plan)
    if args.json:
        print(canonical_json(payload))
    else:
        pct = 100.0 * plan.n_cached / plan.n_runs if plan.n_runs else 100.0
        print(
            f"campaign {spec.name}: {spec.n_points} points x {spec.replicates} "
            f"replicates = {plan.n_runs} runs; cached {plan.n_cached}, "
            f"missing {plan.n_missing} ({pct:.1f}% complete)"
        )
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    spec = CampaignSpec.from_file(args.spec)
    runner = CampaignRunner(spec, cache_dir=args.cache_dir)
    report = runner.collect(allow_partial=args.allow_partial)
    _write_report(report, args.out, args.json)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "status": _cmd_status, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"repro campaign: error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
