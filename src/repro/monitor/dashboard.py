"""Dashboard renderers.

The paper's server "visualizes the information through a dashboard".  This
module renders the same panels in three media:

* :meth:`Dashboard.render_text` — a terminal dashboard (node table, link
  table, traffic matrix, traffic composition, alerts),
* :meth:`Dashboard.render_dot` — Graphviz DOT of the reported topology,
* :meth:`Dashboard.to_json_dict` — the structured document behind the
  HTTP API, consumable by any web frontend.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.monitor import health as health_mod
from repro.monitor import metrics
from repro.monitor.alerts import AlertEngine, default_rules
from repro.monitor.storage import MetricsStore

if TYPE_CHECKING:  # the observability layer is optional for the dashboard
    from repro.obs.recorder import FlightRecorder


def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Fixed-width ASCII table."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: float, suffix: str = "", digits: int = 1) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.{digits}f}{suffix}"


class Dashboard:
    """Aggregated views over a metrics store."""

    def __init__(
        self,
        store: MetricsStore,
        alert_engine: Optional[AlertEngine] = None,
        report_interval_s: float = 60.0,
        monitor_server: Optional[Any] = None,
        flight_recorder: Optional["FlightRecorder"] = None,
        network_id: Optional[str] = None,
    ) -> None:
        """Args:
            store: the metrics store to render.
            alert_engine: alert rules (a default engine when omitted).
            report_interval_s: the clients' flush cadence (liveness maths).
            monitor_server: optional :class:`~repro.monitor.server.MonitorServer`
                whose self-metrics feed the ``[server]`` panel ("monitor
                the monitor"); omit to hide the panel.
            flight_recorder: optional :class:`~repro.obs.recorder.FlightRecorder`
                feeding the ``[drops]`` panel (message verdicts and drop
                accounting); omit to hide the panel.
            network_id: label when this dashboard renders one network of
                a multi-tenant server; None keeps the single-network
                output byte-identical.
        """
        self.store = store
        self.alerts = (
            alert_engine
            if alert_engine is not None
            else AlertEngine(store, default_rules(report_interval_s))
        )
        self.report_interval_s = report_interval_s
        self.monitor_server = monitor_server
        self.flight_recorder = flight_recorder
        self.network_id = network_id

    # -- panels ------------------------------------------------------------------

    def node_rows(self, now: float) -> List[Dict[str, Any]]:
        """One summary row per known node."""
        scores = health_mod.network_health(self.store, now, self.report_interval_s)
        rows = []
        for node in self.store.nodes():
            status = self.store.latest_status(node)
            last = self.store.last_seen(node)
            rows.append(
                {
                    "node": node,
                    "last_seen_age_s": (now - last) if last is not None else None,
                    "uptime_s": status.uptime_s if status else None,
                    "battery_v": status.battery_v if status else None,
                    "queue": status.queue_depth if status else None,
                    "routes": status.route_count if status else None,
                    "neighbors": status.neighbor_count if status else None,
                    "duty": status.duty_utilisation if status else None,
                    "tx_frames": status.tx_frames if status else None,
                    "drops": status.drops if status else None,
                    "client_drops": self.store.reported_drops(node),
                    "health": scores[node].score if node in scores else None,
                }
            )
        return rows

    def link_rows(self, since: Optional[float] = None) -> List[Dict[str, Any]]:
        """One row per directed radio link."""
        return [
            {
                "tx": link.tx,
                "rx": link.rx,
                "frames": link.frames,
                "rssi_mean": link.rssi_mean,
                "rssi_min": link.rssi_min,
                "rssi_max": link.rssi_max,
                "snr_mean": link.snr_mean,
            }
            for (_tx, _rx), link in sorted(metrics.link_quality(self.store, since=since).items())
        ]

    def pdr_rows(self, since: Optional[float] = None) -> List[Dict[str, Any]]:
        """One row per unicast (src, dst) pair with traffic."""
        rows = []
        latencies = metrics.delivery_latency(self.store, since=since)
        for (src, dst), pair in sorted(metrics.pdr_matrix(self.store, since=since).items()):
            latency = latencies.get((src, dst))
            rows.append(
                {
                    "src": src,
                    "dst": dst,
                    "sent": pair.sent,
                    "delivered": pair.delivered,
                    "pdr": pair.pdr,
                    "latency_mean_s": latency.mean if latency else None,
                    "latency_p95_s": latency.percentile(95) if latency else None,
                }
            )
        return rows

    def server_document(self) -> Optional[Dict[str, Any]]:
        """Self-metrics of the attached monitoring server, or None."""
        if self.monitor_server is None:
            return None
        return self.monitor_server.self_metrics_document()

    def drops_document(self) -> Optional[Dict[str, Any]]:
        """Flight-recorder summary (verdicts + drop tables), or None."""
        if self.flight_recorder is None:
            return None
        return self.flight_recorder.to_json_dict()

    # -- renderers ----------------------------------------------------------------

    def render_text(self, now: float) -> str:
        """Full terminal dashboard."""
        self.alerts.evaluate(now)
        label = "" if self.network_id is None else f" [{self.network_id}]"
        sections = [f"=== LoRa mesh monitor{label} @ t={now:.0f}s ==="]

        node_rows = self.node_rows(now)
        sections.append("\n[nodes]")
        sections.append(
            _format_table(
                ["node", "seen", "uptime", "batt", "queue", "routes", "neigh", "duty", "health"],
                [
                    [
                        str(row["node"]),
                        _fmt(row["last_seen_age_s"], "s", 0),
                        _fmt(row["uptime_s"], "s", 0),
                        _fmt(row["battery_v"], "V", 2),
                        _fmt(float(row["queue"]) if row["queue"] is not None else None, "", 0),
                        _fmt(float(row["routes"]) if row["routes"] is not None else None, "", 0),
                        _fmt(float(row["neighbors"]) if row["neighbors"] is not None else None, "", 0),
                        _fmt(row["duty"] * 100 if row["duty"] is not None else None, "%", 1),
                        _fmt(row["health"], "", 0),
                    ]
                    for row in node_rows
                ],
            )
        )

        link_rows = self.link_rows()
        sections.append("\n[links]  (tx -> rx as heard by rx)")
        sections.append(
            _format_table(
                ["tx", "rx", "frames", "rssi", "snr"],
                [
                    [
                        str(row["tx"]),
                        str(row["rx"]),
                        str(row["frames"]),
                        _fmt(row["rssi_mean"], "dBm", 1),
                        _fmt(row["snr_mean"], "dB", 1),
                    ]
                    for row in link_rows
                ],
            )
        )

        pdr_rows = self.pdr_rows()
        if pdr_rows:
            sections.append("\n[delivery]")
            sections.append(
                _format_table(
                    ["src", "dst", "sent", "delivered", "pdr", "lat-mean", "lat-p95"],
                    [
                        [
                            str(row["src"]),
                            str(row["dst"]),
                            str(row["sent"]),
                            str(row["delivered"]),
                            _fmt(row["pdr"] * 100 if row["pdr"] is not None else None, "%", 1),
                            _fmt(row["latency_mean_s"], "s", 2),
                            _fmt(row["latency_p95_s"], "s", 2),
                        ]
                        for row in pdr_rows
                    ],
                )
            )

        breakdown = metrics.type_breakdown(self.store)
        if breakdown:
            sections.append("\n[traffic composition]")
            sections.append(
                _format_table(
                    ["type", "frames", "bytes", "airtime"],
                    [
                        [row.name, str(row.frames_out), str(row.bytes_out), _fmt(row.airtime_s, "s", 2)]
                        for row in breakdown
                    ],
                )
            )

        server_doc = self.server_document()
        if server_doc is not None:
            sections.append("\n[server]  (self-metrics)")
            sections.append(
                _format_table(
                    ["batches", "records", "dedup", "decode-err", "flushes", "flush-max"],
                    [[
                        str(server_doc["batches_ingested"]),
                        str(server_doc["records_ingested"]),
                        str(server_doc["dedup_hits"]),
                        str(server_doc["decode_failures"]),
                        str(server_doc["store_flushes"]),
                        _fmt(server_doc["flush_latency_max_ms"], "ms", 2),
                    ]],
                )
            )

        drops_doc = self.drops_document()
        if drops_doc is not None:
            sections.append("\n[drops]  (flight recorder: message verdicts / drop events)")
            verdicts = {k: v for k, v in drops_doc["verdicts"].items() if v}
            sections.append(
                _format_table(
                    ["verdict", "messages"],
                    [[verdict, str(count)] for verdict, count in verdicts.items()],
                )
            )
            reasons = drops_doc["drops_by_reason"]
            if reasons:
                sections.append(
                    _format_table(
                        ["drop reason", "events"],
                        [
                            [reason, str(count)]
                            for reason, count in sorted(reasons.items(), key=lambda kv: -kv[1])
                        ],
                    )
                )

        active = self.alerts.active()
        sections.append(f"\n[alerts]  {len(active)} active")
        for alert in active:
            node_label = f"node {alert.node}" if alert.node is not None else "network"
            sections.append(
                f"  {alert.severity.upper():8s} {alert.rule:14s} {node_label}: "
                f"{alert.message} (since t={alert.raised_at:.0f}s)"
            )
        return "\n".join(sections)

    def render_dot(self) -> str:
        """Graphviz DOT digraph of the reported topology."""
        lines = [
            "digraph lora_mesh {",
            "  rankdir=LR;",
            '  node [shape=circle, fontsize=10];',
        ]
        for node in self.store.nodes():
            lines.append(f'  n{node} [label="{node}"];')
        for edge in metrics.neighbor_graph(self.store):
            lines.append(
                f'  n{edge.tx} -> n{edge.rx} [label="{edge.rssi_dbm:.0f}dBm", fontsize=8];'
            )
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self, now: float) -> Dict[str, Any]:
        """Structured dashboard document (the HTTP API response body).

        The ``network`` key appears only for labelled (multi-tenant)
        dashboards so the single-network document stays byte-identical.
        """
        self.alerts.evaluate(now)
        document: Dict[str, Any] = {}
        if self.network_id is not None:
            document["network"] = self.network_id
        return {
            **document,
            "now": now,
            "network_health": health_mod.network_health_score(
                self.store, now, self.report_interval_s
            ),
            "network_pdr": metrics.network_pdr(self.store),
            "nodes": self.node_rows(now),
            "links": self.link_rows(),
            "delivery": self.pdr_rows(),
            "composition": [
                {
                    "type": row.name,
                    "frames": row.frames_out,
                    "bytes": row.bytes_out,
                    "airtime_s": row.airtime_s,
                }
                for row in metrics.type_breakdown(self.store)
            ],
            "alerts": [alert.to_json_dict() for alert in self.alerts.active()],
            "server": self.server_document(),
            "drops": self.drops_document(),
        }
