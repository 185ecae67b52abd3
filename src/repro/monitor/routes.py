"""The monitoring server's HTTP route table — single source of truth.

Every endpoint the HTTP layer serves is declared here as a
:class:`Route`; :mod:`repro.monitor.httpapi` dispatches from this table,
``GET /api/v1/schema`` is generated from it, and ``docs/API.md`` is
rendered from the same schema (a test keeps the file in sync).  A route
that is not in this table does not exist, so the schema can never drift
from the dispatch logic.

Versioning
----------

The supported API lives under ``/api/v1/...`` and is network-scoped:
``/api/v1/networks/<network>/nodes`` and friends, plus the fleet-level
``/api/v1/fleet`` and ``/api/v1/networks``.  Single-network clients use
the implicit ``default`` network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

API_VERSION = "v1"


@dataclass(frozen=True)
class Param:
    """One query parameter of a route."""

    name: str
    type: str
    required: bool = False
    description: str = ""
    default: Optional[str] = None

    def to_json_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "name": self.name,
            "type": self.type,
            "required": self.required,
            "description": self.description,
        }
        if self.default is not None:
            document["default"] = self.default
        return document


@dataclass(frozen=True)
class Route:
    """One HTTP endpoint.

    Attributes:
        name: stable identifier (handler lookup key and schema key).
        method: HTTP method.
        pattern: path with ``<network>`` placeholders for path params.
        summary: one-line human description.
        response: shape of the response body.
        params: query parameters.
        kind: ``api`` (JSON, in the schema) or ``ui`` (HTML/text pages).
    """

    name: str
    method: str
    pattern: str
    summary: str
    response: str
    params: Tuple[Param, ...] = ()
    kind: str = "api"

    @property
    def path_params(self) -> Tuple[str, ...]:
        return tuple(
            segment[1:-1]
            for segment in self.pattern.strip("/").split("/")
            if segment.startswith("<") and segment.endswith(">")
        )

    def match(self, method: str, path: str) -> Optional[Dict[str, str]]:
        """Path params when ``method path`` hits this route, else None."""
        if method != self.method:
            return None
        want = self.pattern.strip("/").split("/")
        have = path.strip("/").split("/")
        if len(want) != len(have):
            return None
        params: Dict[str, str] = {}
        for expected, actual in zip(want, have):
            if expected.startswith("<") and expected.endswith(">"):
                if not actual:
                    return None
                params[expected[1:-1]] = actual
            elif expected != actual:
                return None
        return params

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "method": self.method,
            "path": self.pattern,
            "summary": self.summary,
            "path_params": list(self.path_params),
            "query_params": [param.to_json_dict() for param in self.params],
            "response": self.response,
        }


_STREAM_PARAMS = (
    Param(
        "heartbeat",
        "float",
        description="Comment-heartbeat period in seconds while the topic is quiet.",
        default="15",
    ),
    Param(
        "limit",
        "int",
        description=(
            "Close the stream after this many events (bounded mode for "
            "tests and scripts); omitted = stream until disconnect."
        ),
    ),
    Param(
        "last_event_id",
        "int",
        description=(
            "Resume cursor for clients that cannot set the Last-Event-ID "
            "header; the header wins when both are present."
        ),
    ),
)

_HISTORY_PARAMS = (
    Param("node", "int", required=True, description="Node address the series is for."),
    Param(
        "field",
        "string",
        description=(
            "StatusRecord field to roll up (e.g. queue_depth, battery_v); "
            "omitted = packet rate."
        ),
    ),
    Param(
        "interval",
        "float",
        description="Bucket width in seconds.",
        default="300",
    ),
)

#: Every route the HTTP layer serves, dispatch order.
ROUTES: Tuple[Route, ...] = (
    # -- fleet-level ---------------------------------------------------------
    Route(
        name="schema",
        method="GET",
        pattern="/api/v1/schema",
        summary="Machine-readable description of every API route.",
        response="object: api_version, routes[]",
    ),
    Route(
        name="fleet",
        method="GET",
        pattern="/api/v1/fleet",
        summary="Fleet overview: per-network tiles, totals, top-N unhealthy.",
        response="object: now, networks[], totals{}, top_unhealthy[]",
    ),
    Route(
        name="networks",
        method="GET",
        pattern="/api/v1/networks",
        summary="Ids of every resident network.",
        response="array of network-id strings",
    ),
    Route(
        name="server-metrics",
        method="GET",
        pattern="/api/v1/server",
        summary="Server self-metrics: ingest/dedup/flush counters.",
        response="object: ingestion counters, alert counters, per-store flush stats",
    ),
    Route(
        name="stream",
        method="GET",
        pattern="/api/v1/stream",
        summary=(
            "Live fleet event stream (SSE). Pushes repro.stream/1 delta "
            "events on the fleet topic — fleet-tile changes as batches "
            "arrive — with comment heartbeats while quiet. Reconnecting "
            "clients resume from the Last-Event-ID header (bounded replay "
            "ring; see docs/STREAMING.md)."
        ),
        response=(
            "text/event-stream of repro.stream/1 events (event/id/data "
            "frames, ': keep-alive' heartbeats, retry hint)"
        ),
        params=_STREAM_PARAMS,
    ),
    # -- network-scoped ------------------------------------------------------
    Route(
        name="network-stream",
        method="GET",
        pattern="/api/v1/networks/<network>/stream",
        summary=(
            "Live event stream (SSE) for one network: ingest-delta, "
            "rollup-update, alert-raised/alert-cleared and fleet-tile "
            "events as its batches arrive. Same framing, heartbeat and "
            "Last-Event-ID resume semantics as /api/v1/stream."
        ),
        response=(
            "text/event-stream of repro.stream/1 events (event/id/data "
            "frames, ': keep-alive' heartbeats, retry hint)"
        ),
        params=_STREAM_PARAMS,
    ),
    Route(
        name="network-detail",
        method="GET",
        pattern="/api/v1/networks/<network>",
        summary="One network's ingest counters.",
        response="object: network, batches/records ingested, dedup_hits, datagram_batches, last_batch_at",
    ),
    Route(
        name="network-summary",
        method="GET",
        pattern="/api/v1/networks/<network>/summary",
        summary="Full dashboard document for one network.",
        response="object: now, network_health, network_pdr, nodes[], links[], delivery[], composition, alerts[], server{}, drops{}",
    ),
    Route(
        name="network-nodes",
        method="GET",
        pattern="/api/v1/networks/<network>/nodes",
        summary="Node table for one network.",
        response="array of node rows",
    ),
    Route(
        name="network-links",
        method="GET",
        pattern="/api/v1/networks/<network>/links",
        summary="Link-quality table for one network.",
        response="array of link rows",
    ),
    Route(
        name="network-delivery",
        method="GET",
        pattern="/api/v1/networks/<network>/delivery",
        summary="PDR/latency per (src, dst) pair for one network.",
        response="array of delivery rows",
    ),
    Route(
        name="network-alerts",
        method="GET",
        pattern="/api/v1/networks/<network>/alerts",
        summary="Active alerts for one network.",
        response="array: rule, node, severity, message, raised_at",
    ),
    Route(
        name="network-health",
        method="GET",
        pattern="/api/v1/networks/<network>/health",
        summary="Per-node health scores for one network.",
        response="object keyed by node: score, liveness, delivery, spectrum, battery",
    ),
    Route(
        name="network-history",
        method="GET",
        pattern="/api/v1/networks/<network>/history",
        summary="Rolled-up time series for one node of one network.",
        response="array of buckets: start, interval_s, count, mean, min, max",
        params=_HISTORY_PARAMS,
    ),
    Route(
        name="network-dot",
        method="GET",
        pattern="/api/v1/networks/<network>/dot",
        summary="Graphviz topology of one network.",
        response="text/plain DOT document",
    ),
    Route(
        name="network-ingest",
        method="POST",
        pattern="/api/v1/networks/<network>/ingest",
        summary=(
            "Ingest one record batch for this network. The codec is negotiated "
            "via Content-Type: application/json (default) or the compact "
            "binary telemetry format application/vnd.repro.telemetry+binary "
            "(see PROTOCOL.md). 400 on malformed or cross-network batches."
        ),
        response="object: ok, accepted_packets, accepted_status, duplicates",
    ),
    # -- ui ------------------------------------------------------------------
    Route(
        name="index",
        method="GET",
        pattern="/",
        summary="HTML dashboard of the default network.",
        response="text/html",
        kind="ui",
    ),
    Route(
        name="fleet-page",
        method="GET",
        pattern="/fleet",
        summary="HTML fleet overview.",
        response="text/html",
        kind="ui",
    ),
    Route(
        name="network-page",
        method="GET",
        pattern="/networks/<network>",
        summary="HTML dashboard of one network.",
        response="text/html",
        kind="ui",
    ),
    Route(
        name="text",
        method="GET",
        pattern="/text",
        summary="Plain-text dashboard of the default network.",
        response="text/html (pre-wrapped text)",
        kind="ui",
    ),
)

def api_routes() -> List[Route]:
    """The JSON API routes (what the schema documents)."""
    return [route for route in ROUTES if route.kind == "api"]


def schema_document() -> Dict[str, Any]:
    """The ``GET /api/v1/schema`` body."""
    return {
        "api_version": API_VERSION,
        "routes": [route.to_json_dict() for route in api_routes()],
    }


def render_api_markdown() -> str:
    """``docs/API.md`` content, generated from the route table."""
    lines: List[str] = [
        "# HTTP API",
        "",
        "<!-- Generated from repro.monitor.routes; edit that module, not this file.",
        "     tests/unit/test_api_contract.py keeps the two in sync. -->",
        "",
        "The monitoring server exposes a versioned JSON API under"
        f" `/api/{API_VERSION}/...`.",
        "All endpoints are network-scoped where it matters: one server monitors many",
        "independent mesh networks, and `<network>` in a path selects one of them",
        "(single-network deployments live in the implicit `default` network).",
        "",
        "The full machine-readable description of this surface is served at",
        f"`GET /api/{API_VERSION}/schema`; this file is rendered from the same",
        "route table.",
        "",
        "## Routes",
        "",
    ]
    for route in api_routes():
        lines.append(f"### `{route.method} {route.pattern}`")
        lines.append("")
        lines.append(route.summary)
        lines.append("")
        if route.params:
            lines.append("Query parameters:")
            lines.append("")
            for param in route.params:
                required = "required" if param.required else "optional"
                default = f", default `{param.default}`" if param.default else ""
                lines.append(
                    f"- `{param.name}` ({param.type}, {required}{default})"
                    + (f" — {param.description}" if param.description else "")
                )
            lines.append("")
        lines.append(f"Response: {route.response}")
        lines.append("")
    lines.extend(["## UI pages", ""])
    for route in ROUTES:
        if route.kind == "ui":
            lines.append(f"- `{route.method} {route.pattern}` — {route.summary}")
    lines.extend(
        [
            "",
            "## Python facade",
            "",
            "The supported in-process surface is `repro.api`; everything below is",
            "importable from there (lint rule RL007 flags deep imports of these",
            "names from tests, benchmarks and examples):",
            "",
        ]
    )
    # Imported here: repro.api pulls in the whole stack (including this
    # module), so a top-level import would be a cycle.
    import repro.api

    for name in repro.api.__all__:
        lines.append(f"- `{name}`")
    lines.append("")
    return "\n".join(lines)
