"""Rich HTML dashboard rendering.

Produces a self-contained HTML page (inline CSS + SVG) with the panels
the paper's dashboard shows: summary tiles, an SVG map of the
reconstructed topology, and the node / link / delivery / alert tables.
Served at ``GET /`` by the HTTP API; the plain-text variant remains
available at ``GET /text``.

Pages go live via the push pipeline: a small inline ``EventSource``
script subscribes to the server's SSE stream, patches the summary tiles
and alert list in place, and drives a visible live/stale connection
badge.  Without JavaScript the pages degrade gracefully — a
``<noscript>``-wrapped ``<meta http-equiv="refresh">`` keeps them
polling exactly as before, and the badge stays hidden.

Node positions on the map are computed server-side: the reported nodes
sit evenly on a circle, in address order, and the *reported* links are
drawn between them — the server has no ground truth coordinates, which
is exactly the paper's situation.
"""

from __future__ import annotations

import html
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.monitor.dashboard import Dashboard
from repro.monitor.ingest import DEFAULT_NETWORK_ID

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; background: #101418;
       color: #d8dee4; margin: 0; padding: 1.2em 2em; }
h1 { font-size: 1.3em; font-weight: 600; }
h2 { font-size: 1.0em; margin: 1.4em 0 0.4em; color: #9fb0c0;
     text-transform: uppercase; letter-spacing: 0.08em; }
.tiles { display: flex; gap: 1em; flex-wrap: wrap; }
.tile { background: #1a2128; border: 1px solid #2a333d; border-radius: 8px;
        padding: 0.8em 1.2em; min-width: 9em; }
.tile .value { font-size: 1.7em; font-weight: 700; color: #7fd4a5; }
.tile .label { font-size: 0.75em; color: #8796a5; }
.tile.warn .value { color: #e8c268; }
.tile.bad .value { color: #e87a68; }
table { border-collapse: collapse; font-size: 0.85em; margin-top: 0.4em; }
th, td { padding: 0.3em 0.9em; text-align: left; }
th { color: #8796a5; border-bottom: 1px solid #2a333d; font-weight: 600; }
tr:nth-child(even) { background: #151b21; }
.alert { padding: 0.5em 0.9em; border-left: 3px solid #e87a68; margin: 0.3em 0;
         background: #1f1a19; font-size: 0.9em; }
.alert.warning { border-color: #e8c268; background: #1f1d16; }
svg { background: #0c1013; border: 1px solid #2a333d; border-radius: 8px; }
.muted { color: #5d6b79; }
.badge { font-size: 0.5em; font-weight: 600; vertical-align: middle;
         padding: 0.2em 0.7em; border-radius: 1em; border: 1px solid;
         margin-left: 0.6em; letter-spacing: 0.06em; }
.badge.live { color: #7fd4a5; border-color: #3d6b52; }
.badge.stale { color: #e8c268; border-color: #6b5c2f; }
"""

#: Poll period of the no-JavaScript fallback (inside ``<noscript>`` so
#: live pages are not also reloading underneath the SSE patcher).
_NOSCRIPT_REFRESH = '<noscript><meta http-equiv="refresh" content="10"></noscript>'

#: The connection badge; hidden until the EventSource script adopts it,
#: so no-JS readers never see a dangling "stale" indicator.
_BADGE = '<span id="live-badge" class="badge stale" hidden>connecting</span>'

_BADGE_JS = """
  var badge = document.getElementById("live-badge");
  if (!badge || typeof EventSource === "undefined") { return; }
  badge.hidden = false;
  function setBadge(state) { badge.className = "badge " + state; badge.textContent = state; }
  function payload(event) {
    try { return JSON.parse(event.data).data; } catch (error) { return null; }
  }
"""


def _live_script(stream_path: str, body: str) -> str:
    """The inline EventSource patcher for one page.

    ``body`` holds the page's event listeners; it can use ``source``,
    ``setBadge(state)`` and ``payload(event)``.  Heartbeat comments are
    invisible to ``EventSource``, so the badge is driven by the
    connection state callbacks: ``open`` → live, ``error`` → stale
    (the browser auto-reconnects per the server's ``retry:`` hint).
    """
    return (
        "<script>\n(function () {\n  \"use strict\";\n"
        + _BADGE_JS
        + f'  var source = new EventSource("{stream_path}");\n'
        + '  source.onopen = function () { setBadge("live"); };\n'
        + '  source.onerror = function () { setBadge("stale"); };\n'
        + body
        + "})();\n</script>"
    )


_NETWORK_LISTENERS = """
  function setLive(name, text) {
    var el = document.querySelector('[data-live="' + name + '"]');
    if (el) { el.textContent = text; }
  }
  source.addEventListener("fleet-tile", function (event) {
    var tile = payload(event);
    if (!tile) { return; }
    if (tile.health !== null) { setLive("health", tile.health.toFixed(0)); }
    if (tile.pdr !== null) { setLive("pdr", (100 * tile.pdr).toFixed(1) + "%"); }
  });
  source.addEventListener("alert-raised", function (event) {
    var alert = payload(event);
    var list = document.getElementById("alerts");
    if (!alert || !list) { return; }
    var key = alert.rule + ":" + alert.node;
    if (list.querySelector('[data-key="' + key + '"]')) { return; }
    var empty = document.getElementById("no-alerts");
    if (empty) { empty.remove(); }
    var div = document.createElement("div");
    div.className = "alert " + alert.severity;
    div.setAttribute("data-key", key);
    var target = alert.node === null ? "network" : "node " + alert.node;
    var rule = document.createElement("b");
    rule.textContent = alert.rule;
    div.appendChild(rule);
    div.appendChild(document.createTextNode(" — " + target + ": " + alert.message));
    list.appendChild(div);
  });
  source.addEventListener("alert-cleared", function (event) {
    var alert = payload(event);
    var list = document.getElementById("alerts");
    if (!alert || !list) { return; }
    var el = list.querySelector('[data-key="' + alert.rule + ":" + alert.node + '"]');
    if (el) { el.remove(); }
  });
"""

_FLEET_LISTENERS = """
  source.addEventListener("fleet-tile", function (event) {
    var tile = payload(event);
    if (!tile) { return; }
    var root = document.querySelector('[data-network="' + tile.network + '"]');
    if (!root) { return; }  // unknown network: appears on the next full load
    var value = root.querySelector(".value");
    if (value && tile.health !== null) { value.textContent = tile.health.toFixed(0); }
    var summary = root.querySelector('[data-live="summary"]');
    if (summary) {
      summary.textContent = tile.nodes + " nodes · " + tile.records_ingested + " records";
    }
  });
"""


def _fmt(value: Optional[float], suffix: str = "", digits: int = 1) -> str:
    """A fixed-point number, or a muted dash for None or NaN."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return '<span class="muted">–</span>'
    return f"{float(value):.{digits}f}{suffix}"


def _health_class(score: float) -> str:
    if score is None or (isinstance(score, float) and math.isnan(score)):
        return "bad"
    if score >= 75:
        return ""
    if score >= 50:
        return "warn"
    return "bad"


def _layout(nodes: List[int]) -> Dict[int, Tuple[float, float]]:
    """Positions in [0, 1]^2: the nodes evenly on a circle, in address order."""
    count = len(nodes)
    return {
        node: (
            0.5 + 0.45 * math.cos(2 * math.pi * index / count),
            0.5 + 0.45 * math.sin(2 * math.pi * index / count),
        )
        for index, node in enumerate(sorted(nodes))
    }


def _rssi_color(rssi_dbm: float) -> str:
    """Green (strong) -> amber -> red (marginal)."""
    if rssi_dbm >= -105:
        return "#5fae7f"
    if rssi_dbm >= -115:
        return "#e8c268"
    return "#e87a68"


def render_topology_svg(document: Dict[str, Any], width: int = 640, height: int = 420) -> str:
    """SVG map of the reported topology, colored by link RSSI.

    Draws the ``links`` and ``nodes`` of a dashboard document
    (:meth:`~repro.monitor.dashboard.Dashboard.to_json_dict`).
    """
    nodes = [row["node"] for row in document["nodes"]]
    undirected = {}
    for link in document["links"]:
        key = (min(link["tx"], link["rx"]), max(link["tx"], link["rx"]))
        existing = undirected.get(key)
        if existing is None or link["rssi_mean"] > existing:
            undirected[key] = link["rssi_mean"]
    positions = _layout(nodes)
    margin = 36
    def sx(x: float) -> float:
        return margin + x * (width - 2 * margin)
    def sy(y: float) -> float:
        return margin + y * (height - 2 * margin)

    parts = [f'<svg width="{width}" height="{height}" xmlns="http://www.w3.org/2000/svg">']
    for (a, b), rssi in sorted(undirected.items()):
        if a not in positions or b not in positions:
            continue
        xa, ya = positions[a]
        xb, yb = positions[b]
        parts.append(
            f'<line x1="{sx(xa):.1f}" y1="{sy(ya):.1f}" x2="{sx(xb):.1f}" '
            f'y2="{sy(yb):.1f}" stroke="{_rssi_color(rssi)}" stroke-width="1.5" '
            f'opacity="0.7"><title>{a}&#8596;{b}: {rssi:.1f} dBm</title></line>'
        )
    for node in nodes:
        if node not in positions:
            continue
        x, y = positions[node]
        parts.append(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="13" fill="#1f2933" '
            'stroke="#5d8aa8" stroke-width="1.5" />'
        )
        parts.append(
            f'<text x="{sx(x):.1f}" y="{sy(y) + 4:.1f}" text-anchor="middle" '
            'font-size="11" fill="#d8dee4" font-family="sans-serif">'
            f"{node}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def render_html(dashboard: Dashboard, now: float, network_id: Optional[str] = None) -> str:
    """Full self-contained HTML dashboard page.

    ``network_id`` labels the page when it renders one network of a
    multi-network server (the ``/networks/<id>`` view).
    """
    document = dashboard.to_json_dict(now)
    nodes = document["nodes"]
    online = sum(
        1 for row in nodes
        if row["last_seen_age_s"] is not None
        and row["last_seen_age_s"] < dashboard.report_interval_s * 3
    )
    health = document["network_health"]
    pdr = document["network_pdr"]
    health_tile_class = _health_class(health)
    pdr_percent = None if pdr is None or (isinstance(pdr, float) and math.isnan(pdr)) else pdr * 100

    label = "" if network_id is None else f" — network {html.escape(network_id)}"
    stream_network = network_id if network_id is not None else DEFAULT_NETWORK_ID
    stream_path = f"/api/v1/networks/{html.escape(stream_network)}/stream"
    sections = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        _NOSCRIPT_REFRESH,
        "<title>LoRa mesh monitor</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>LoRa mesh monitor{label} <span class='muted'>t={now:.0f}s</span>{_BADGE}</h1>",
        '<div class="tiles">',
        f'<div class="tile {health_tile_class}">'
        f'<div class="value" data-live="health">{_fmt(health, "", 0)}</div>'
        '<div class="label">network health / 100</div></div>',
        f'<div class="tile"><div class="value" data-live="pdr">{_fmt(pdr_percent, "%", 1)}</div>'
        '<div class="label">packet delivery</div></div>',
        f'<div class="tile"><div class="value">{online}/{len(nodes)}</div>'
        '<div class="label">nodes reporting</div></div>',
        f'<div class="tile"><div class="value">{len(document["links"])}</div>'
        '<div class="label">radio links seen</div></div>',
        "</div>",
        "<h2>Topology (as reported)</h2>",
        render_topology_svg(document),
    ]

    sections.append("<h2>Nodes</h2><table><tr><th>node</th><th>seen</th>"
                    "<th>battery</th><th>queue</th><th>routes</th>"
                    "<th>neighbors</th><th>duty</th><th>health</th></tr>")
    for row in nodes:
        duty = row["duty"]
        sections.append(
            "<tr>"
            f"<td>{row['node']}</td>"
            f"<td>{_fmt(row['last_seen_age_s'], 's', 0)}</td>"
            f"<td>{_fmt(row['battery_v'], ' V', 2)}</td>"
            f"<td>{row['queue'] if row['queue'] is not None else '–'}</td>"
            f"<td>{row['routes'] if row['routes'] is not None else '–'}</td>"
            f"<td>{row['neighbors'] if row['neighbors'] is not None else '–'}</td>"
            f"<td>{_fmt(duty * 100 if duty is not None else None, '%', 1)}</td>"
            f"<td>{_fmt(row['health'], '', 0)}</td>"
            "</tr>"
        )
    sections.append("</table>")

    sections.append("<h2>Delivery</h2><table><tr><th>src</th><th>dst</th>"
                    "<th>sent</th><th>delivered</th><th>PDR</th>"
                    "<th>latency (mean)</th></tr>")
    for row in document["delivery"]:
        row_pdr = row["pdr"]
        sections.append(
            "<tr>"
            f"<td>{row['src']}</td><td>{row['dst']}</td>"
            f"<td>{row['sent']}</td><td>{row['delivered']}</td>"
            f"<td>{_fmt(row_pdr * 100 if row_pdr is not None else None, '%', 1)}</td>"
            f"<td>{_fmt(row['latency_mean_s'], ' s', 2)}</td>"
            "</tr>"
        )
    sections.append("</table>")

    alerts = document["alerts"]
    if alerts is not None:
        sections.append('<h2>Alerts</h2><div id="alerts">')
        if not alerts:
            sections.append('<p class="muted" id="no-alerts">no active alerts</p>')
        for alert in alerts:
            target = f"node {alert['node']}" if alert["node"] is not None else "network"
            key = f"{alert['rule']}:{alert['node']}"
            sections.append(
                f'<div class="alert {html.escape(alert["severity"])}" data-key="{html.escape(key)}">'
                f"<b>{html.escape(alert['rule'])}</b> — {target}: "
                f"{html.escape(alert['message'])} "
                f'<span class="muted">since t={alert["raised_at"]:.0f}s</span></div>'
            )
        sections.append("</div>")

    server = document.get("server")
    if server is not None:
        sections.append("<h2>Server (self-metrics)</h2><table>"
                        "<tr><th>batches</th><th>records</th><th>dedup</th>"
                        "<th>decode err</th><th>flushes</th><th>flush max</th></tr>")
        sections.append(
            "<tr>"
            f"<td>{server['batches_ingested']}</td>"
            f"<td>{server['records_ingested']}</td>"
            f"<td>{server['dedup_hits']}</td>"
            f"<td>{server['decode_failures']}</td>"
            f"<td>{server['store_flushes']}</td>"
            f"<td>{_fmt(server['flush_latency_max_ms'], ' ms', 2)}</td>"
            "</tr>"
        )
        sections.append("</table>")

    sections.append(_live_script(stream_path, _NETWORK_LISTENERS))
    sections.append("</body></html>")
    return "\n".join(sections)


def render_fleet_html(overview: Dict[str, Any]) -> str:
    """Fleet overview page: one tile per network, totals, triage list.

    ``overview`` is the document produced by
    :func:`repro.monitor.fleet.fleet_overview`.
    """
    now = float(overview["now"])
    tiles: List[Dict[str, Any]] = overview["networks"]
    totals: Dict[str, Any] = overview["totals"]
    unhealthy: List[Dict[str, Any]] = overview["top_unhealthy"]
    sections = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        _NOSCRIPT_REFRESH,
        "<title>LoRa mesh monitor — fleet</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Fleet overview <span class='muted'>t={now:.0f}s</span>{_BADGE}</h1>",
        '<div class="tiles">',
        f'<div class="tile"><div class="value">{totals["networks"]}</div>'
        '<div class="label">networks</div></div>',
        f'<div class="tile"><div class="value">{totals["nodes"]}</div>'
        '<div class="label">nodes</div></div>',
        f'<div class="tile"><div class="value">{totals["batches_ingested"]}</div>'
        '<div class="label">batches ingested</div></div>',
        f'<div class="tile"><div class="value">{totals["records_ingested"]}</div>'
        '<div class="label">records ingested</div></div>',
        "</div>",
        "<h2>Networks</h2>",
        '<div class="tiles">',
    ]
    for tile in tiles:
        health = tile["health"]
        klass = _health_class(health if health is not None else math.nan)
        name = html.escape(str(tile["network"]))
        sections.append(
            f'<div class="tile {klass}" data-network="{name}">'
            f'<div class="value">{_fmt(health, "", 0)}</div>'
            f'<div class="label"><a href="/networks/{name}" style="color:inherit">'
            f'{name}</a> · <span data-live="summary">{tile["nodes"]} nodes · '
            f"{tile['records_ingested']} records</span></div></div>"
        )
    sections.append("</div>")

    sections.append(
        "<h2>Most unhealthy</h2><table><tr><th>network</th><th>health</th>"
        "<th>PDR</th><th>nodes</th><th>last batch</th></tr>"
    )
    for tile in unhealthy:
        name = html.escape(str(tile["network"]))
        pdr = tile["pdr"]
        sections.append(
            "<tr>"
            f'<td><a href="/networks/{name}" style="color:inherit">{name}</a></td>'
            f"<td>{_fmt(tile['health'], '', 0)}</td>"
            f"<td>{_fmt(pdr * 100 if pdr is not None else None, '%', 1)}</td>"
            f"<td>{tile['nodes']}</td>"
            f"<td>{_fmt(tile['last_batch_at'], 's', 0)}</td>"
            "</tr>"
        )
    sections.append("</table>")
    sections.append(_live_script("/api/v1/stream", _FLEET_LISTENERS))
    sections.append("</body></html>")
    return "\n".join(sections)
