"""Dashboard renderers.

The paper's server "visualizes the information through a dashboard".  One
page view is one document, computed once and rendered in several media:

* :meth:`Dashboard.to_json_dict` — the document: every panel, computed
  once; the HTTP API serves it and :mod:`repro.monitor.webview` formats it,
* :meth:`Dashboard.render_text` — the document as a terminal dashboard,
* :meth:`Dashboard.render_dot` — Graphviz DOT of the reported topology.

The panels read the store's :class:`~repro.monitor.aggregate.ViewAggregate`
under its lock, the lock the store's writes take, so a view scans no
packet records, costs the same at any history length, and is one
consistent snapshot while another thread ingests.  The alerts are the
monitor server's, so a view evaluates no rule and keeps no state.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.monitor import health as health_mod
from repro.monitor import metrics
from repro.monitor.ingest import DEFAULT_NETWORK_ID
from repro.monitor.storage import MetricsStore

if TYPE_CHECKING:  # annotations only; the observability layer is optional
    from repro.monitor.server import MonitorServer
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
        report_interval_s: float = 60.0,
        monitor_server: Optional["MonitorServer"] = None,
        flight_recorder: Optional["FlightRecorder"] = None,
        network_id: Optional[str] = None,
    ) -> None:
        """Args:
            store: the metrics store to render.
            report_interval_s: the clients' flush cadence (liveness maths).
            monitor_server: optional :class:`~repro.monitor.server.MonitorServer`
                whose self-metrics feed the ``[server]`` panel ("monitor
                the monitor") and whose alert engine for this network
                feeds the ``[alerts]`` panel; omit to hide both panels.
            flight_recorder: optional :class:`~repro.obs.recorder.FlightRecorder`
                feeding the ``[drops]`` panel (message verdicts and drop
                accounting); omit to hide the panel.
            network_id: label when this dashboard renders one network of
                a multi-tenant server (its alerts are ``default``'s when
                None); None keeps the single-network output unlabelled.
        """
        self.store = store
        self.report_interval_s = report_interval_s
        self.monitor_server = monitor_server
        self.flight_recorder = flight_recorder
        self.network_id = network_id

    # -- panels ------------------------------------------------------------------

    def node_rows(self, now: float) -> List[Dict[str, Any]]:
        """One summary row per known node."""
        with self.store.aggregate.lock:
            scores = health_mod.network_health(self.store, now, self.report_interval_s)
            return self._node_rows(now, scores)

    def _node_rows(
        self, now: float, scores: Dict[int, health_mod.HealthScore]
    ) -> List[Dict[str, Any]]:
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

    def link_rows(self) -> List[Dict[str, Any]]:
        """One row per directed radio link, sorted by (tx, rx): the
        aggregate's rows (see :meth:`to_json_dict` on sharing them)."""
        return self.store.aggregate.links()

    def pdr_rows(self) -> List[Dict[str, Any]]:
        """One row per unicast (src, dst) pair with traffic, sorted: the
        aggregate's rows (see :meth:`to_json_dict` on sharing them)."""
        return self.store.aggregate.delivery()

    def alert_rows(self) -> Optional[List[Dict[str, Any]]]:
        """The network's active alerts from the monitor server's engine
        (None without a server); never called under the aggregate's lock."""
        server = self.monitor_server
        if server is None:
            return None
        network = DEFAULT_NETWORK_ID if self.network_id is None else self.network_id
        return server.active_alerts(network)

    # -- renderers ----------------------------------------------------------------

    def render_text(self, now: float) -> str:
        """Full terminal dashboard: the page view's document as text."""
        document = self.to_json_dict(now)
        label = "" if self.network_id is None else f" [{self.network_id}]"
        sections = [f"=== LoRa mesh monitor{label} @ t={now:.0f}s ==="]

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
                        _fmt(row["queue"], "", 0),
                        _fmt(row["routes"], "", 0),
                        _fmt(row["neighbors"], "", 0),
                        _fmt(row["duty"] * 100 if row["duty"] is not None else None, "%", 1),
                        _fmt(row["health"], "", 0),
                    ]
                    for row in document["nodes"]
                ],
            )
        )

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
                    for row in document["links"]
                ],
            )
        )

        if document["delivery"]:
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
                        for row in document["delivery"]
                    ],
                )
            )

        if document["composition"]:
            sections.append("\n[traffic composition]")
            sections.append(
                _format_table(
                    ["type", "frames", "bytes", "airtime"],
                    [
                        [row["type"], str(row["frames"]), str(row["bytes"]), _fmt(row["airtime_s"], "s", 2)]
                        for row in document["composition"]
                    ],
                )
            )

        server = document["server"]
        if server is not None:
            sections.append("\n[server]  (self-metrics)")
            sections.append(
                _format_table(
                    ["batches", "records", "dedup", "decode-err", "flushes", "flush-max"],
                    [[
                        str(server["batches_ingested"]),
                        str(server["records_ingested"]),
                        str(server["dedup_hits"]),
                        str(server["decode_failures"]),
                        str(server["store_flushes"]),
                        _fmt(server["flush_latency_max_ms"], "ms", 2),
                    ]],
                )
            )

        drops = document["drops"]
        if drops is not None:
            sections.append("\n[drops]  (flight recorder: message verdicts / drop events)")
            verdicts = {k: v for k, v in drops["verdicts"].items() if v}
            sections.append(
                _format_table(
                    ["verdict", "messages"],
                    [[verdict, str(count)] for verdict, count in verdicts.items()],
                )
            )
            reasons = drops["drops_by_reason"]
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

        alerts = document["alerts"]
        if alerts is not None:
            sections.append(f"\n[alerts]  {len(alerts)} active")
            for alert in alerts:
                node_label = f"node {alert['node']}" if alert["node"] is not None else "network"
                sections.append(
                    f"  {alert['severity'].upper():8s} {alert['rule']:14s} {node_label}: "
                    f"{alert['message']} (since t={alert['raised_at']:.0f}s)"
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
        """The document of one page view, every panel computed once.

        The panels are read under the aggregate's lock, so they are one
        snapshot of the store; the alerts and self-metrics (under the
        monitor server's lock) and the flight recorder lock themselves
        and are read after it is released.
        The network score is the mean of the node rows' scores.  The
        ``network`` key appears only for labelled (multi-tenant)
        dashboards so the single-network document stays byte-identical.

        The document is read-only.  Its ``links`` and ``delivery`` rows
        are the aggregate's own row dicts, shared with later documents
        until ingest changes their link or pair; the aggregate then
        replaces a row and never mutates it, and each call builds new
        lists, so a document stays a snapshot after later ingest as long
        as no reader writes into it.
        """
        store = self.store
        aggregate = store.aggregate
        document: Dict[str, Any] = {}
        if self.network_id is not None:
            document["network"] = self.network_id
        with aggregate.lock:
            scores = health_mod.network_health(store, now, self.report_interval_s)
            document.update({
                "now": now,
                "network_health": health_mod.network_health_score(scores),
                "network_pdr": aggregate.network_pdr(),
                "nodes": self._node_rows(now, scores),
                "links": self.link_rows(),
                "delivery": self.pdr_rows(),
                "composition": [
                    {
                        "type": metrics.packet_type_name(ptype),
                        "frames": frames,
                        "bytes": size,
                        "airtime_s": airtime,
                    }
                    for ptype, frames, size, airtime in aggregate.composition()
                ],
            })
        document["alerts"] = self.alert_rows()
        server, recorder = self.monitor_server, self.flight_recorder
        document["server"] = None if server is None else server.self_metrics_document()
        document["drops"] = None if recorder is None else recorder.to_json_dict()
        return document
