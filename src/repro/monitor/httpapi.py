"""HTTP JSON API over the dashboard — the real wire path of the paper.

A stdlib ``ThreadingHTTPServer`` dispatching from the declarative route
table in :mod:`repro.monitor.routes`.  The supported surface is the
versioned, network-scoped ``/api/v1/...`` API:

==========================================  =================================
``GET  /api/v1/schema``                     Machine-readable route catalogue
``GET  /api/v1/fleet``                      Fleet overview (tiles, totals,
                                            top-N unhealthy networks)
``GET  /api/v1/networks``                   Resident network ids
``GET  /api/v1/server``                     Server self-metrics
``GET  /api/v1/networks/<id>``              One network's ingest counters
``GET  /api/v1/networks/<id>/summary``      Full dashboard document
``GET  /api/v1/networks/<id>/nodes``        Node table
``GET  /api/v1/networks/<id>/links``        Link-quality table
``GET  /api/v1/networks/<id>/delivery``     PDR/latency per pair
``GET  /api/v1/networks/<id>/alerts``       Active alerts
``GET  /api/v1/networks/<id>/health``       Per-node health scores
``GET  /api/v1/networks/<id>/history``      Rolled-up time series
``GET  /api/v1/networks/<id>/dot``          Graphviz topology
``POST /api/v1/networks/<id>/ingest``       Ingest one record batch
                                            (JSON or binary, by
                                            ``Content-Type``)
==========================================  =================================

plus the HTML pages ``/`` (default network), ``/fleet``,
``/networks/<id>`` and ``/text``.

The server needs a *clock* callable so it works both against a live
simulation (pass ``lambda: sim.now``) and in real time (default:
``time.monotonic`` offset to start at 0).
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from repro.monitor import fleet as fleet_mod
from repro.monitor import health as health_mod
from repro.monitor.codec import codec_for_content_type
from repro.monitor.dashboard import Dashboard
from repro.monitor.ingest import DEFAULT_NETWORK_ID, is_valid_network_id
from repro.monitor.routes import ROUTES, schema_document
from repro.monitor.server import MonitorServer
from repro.monitor.stream.events import FLEET_TOPIC, network_topic
from repro.monitor.stream.sse import DEFAULT_HEARTBEAT_S, DEFAULT_RETRY_MS, pump

_INDEX_HTML = """<!DOCTYPE html>
<html><head><title>LoRa mesh monitor</title>
<meta http-equiv="refresh" content="5">
<style>body{font-family:monospace;background:#111;color:#ddd;padding:1em}</style>
</head><body><pre>%s</pre></body></html>
"""


def _sanitize(value: Any) -> Any:
    """Replace NaN/Inf with None so the output is strict JSON."""
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


class MonitoringHttpServer:
    """Serves the dashboard and the ingestion endpoint over HTTP."""

    def __init__(
        self,
        monitor_server: MonitorServer,
        dashboard: Dashboard,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """Create (but do not start) the HTTP server.

        Args:
            monitor_server: ingestion backend for the ingest routes.
            dashboard: view layer for the ``default`` network; other
                networks get dashboards built lazily from their shards.
            host/port: bind address; port 0 picks a free port.
            clock: "now" provider for dashboard rendering.
        """
        self.monitor_server = monitor_server
        self.dashboard = dashboard
        self._lock = threading.Lock()
        #: Lazily built per-network dashboards; raced by handler threads.
        self._dashboards: Dict[str, Dashboard] = {DEFAULT_NETWORK_ID: dashboard}  # guarded-by: _lock
        if clock is None:
            start = time.monotonic()
            clock = lambda: time.monotonic() - start  # noqa: E731 - tiny closure
        self._clock = clock
        handler = self._make_handler()
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None  # guarded-by: _lock
        #: Wakes the alert-sweep timer for shutdown; an Event carries
        #: its own lock, so no class lock is needed around set()/wait().
        self._sweep_stop = threading.Event()  # guarded-by: threading.Event
        self._sweep_thread: Optional[threading.Thread] = None  # guarded-by: _lock

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) actually bound."""
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve requests on a daemon thread until :meth:`stop` (idempotent).

        Also starts the alert-sweep timer: a daemon thread that runs the
        monitor server's periodic full-rule alert sweep
        (:meth:`MonitorServer.maybe_sweep_alerts`) so silent-node and
        windowed alerts fire — and reach SSE subscribers — even when no
        ingest traffic arrives to piggyback the sweep on.
        """
        with self._lock:
            if self._thread is not None:
                return  # already serving
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, daemon=True
            )
            self._thread.start()
            self._sweep_stop.clear()
            self._sweep_thread = threading.Thread(
                target=self._sweep_loop, daemon=True
            )
            self._sweep_thread.start()

    def _sweep_loop(self) -> None:
        """Tick the server's alert sweep until :meth:`stop`.

        The tick period is the server's ``report_interval_s``; the
        server itself paces actual sweeps on *its* clock inside
        ``maybe_sweep_alerts``, so a frozen-clock server (tests, the
        serve CLI's post-run snapshot) just no-ops each tick.
        """
        interval_s = self.monitor_server.report_interval_s
        while not self._sweep_stop.wait(interval_s):
            self.monitor_server.maybe_sweep_alerts()

    def stop(self) -> None:
        """Shut the serve and sweep threads down and release the socket.

        Idempotent, and safe *before* :meth:`start`: ``shutdown()`` is
        only called when a serve thread actually exists — calling it
        with no ``serve_forever`` running blocks forever on an event
        that is never set.  The joins run outside the lock (the serve
        thread never takes it, but keeping joins out of critical
        sections is the house rule — RL101).
        """
        with self._lock:
            thread, self._thread = self._thread, None
            sweep_thread, self._sweep_thread = self._sweep_thread, None
        self._sweep_stop.set()
        if sweep_thread is not None:
            sweep_thread.join(timeout=5.0)
        if thread is not None:
            self._httpd.shutdown()
            thread.join(timeout=5.0)
        self._httpd.server_close()  # idempotent; safe to repeat

    def close(self) -> None:
        """Alias for :meth:`stop` (context-manager / RL103 shape)."""
        self.stop()

    def __enter__(self) -> "MonitoringHttpServer":
        self.start()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

    def dashboard_for(self, network_id: str) -> Optional[Dashboard]:
        """The (lazily built) dashboard of one network, None if unknown.

        The ``default`` network always resolves to the injected
        dashboard; other networks get a view over their shard's store
        the first time they are asked for.  Handler threads race here,
        so the cache is double-checked under the lock: the store lookup
        (which takes the server lock) stays outside, and the winner of a
        build race is whoever publishes last — both views wrap the same
        store, so either is correct.
        """
        if network_id == DEFAULT_NETWORK_ID:
            return self.dashboard
        store = self.monitor_server.store_for(network_id)
        if store is None:
            with self._lock:
                self._dashboards.pop(network_id, None)
            return None
        with self._lock:
            cached = self._dashboards.get(network_id)
            if cached is not None and cached.store is store:
                return cached
        dashboard = Dashboard(
            store,
            report_interval_s=self.dashboard.report_interval_s,
            monitor_server=self.monitor_server,
            network_id=network_id,
        )
        with self._lock:
            current = self._dashboards.get(network_id)
            if current is not None and current.store is store:
                return current  # lost the build race; use the winner
            self._dashboards[network_id] = dashboard
            return dashboard

    def _make_handler(self) -> type:
        api = self

        class Handler(BaseHTTPRequestHandler):
            # Quiet: the simulation benches hammer this endpoint.
            def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
                pass

            # -- plumbing -----------------------------------------------------

            def _send(self, code: int, body: bytes, content_type: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _send_json(self, document: Any, code: int = 200) -> None:
                body = json.dumps(_sanitize(document), indent=1).encode("utf-8")
                self._send(code, body, "application/json")

            def _query_params(self) -> Dict[str, str]:
                from urllib.parse import parse_qs, urlsplit
                raw = urlsplit(self.path).query
                return {key: values[0] for key, values in parse_qs(raw).items()}

            # -- dispatch -----------------------------------------------------

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                self._dispatch("GET")

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                self._dispatch("POST")

            def _dispatch(self, method: str) -> None:
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                for route in ROUTES:
                    params = route.match(method, path)
                    if params is None:
                        continue
                    network = params.get("network", DEFAULT_NETWORK_ID)
                    if not is_valid_network_id(network):
                        self._send_json(
                            {"error": f"invalid network id {network!r}"}, code=400
                        )
                        return
                    handler = getattr(self, "_h_" + route.name.replace("-", "_"))
                    handler(network)
                    return
                self._send_json({"error": "not found"}, code=404)

            def _network_dashboard(self, network: str) -> Optional[Dashboard]:
                dashboard = api.dashboard_for(network)
                if dashboard is None:
                    self._send_json({"error": f"unknown network {network!r}"}, code=404)
                return dashboard

            # -- fleet-level handlers ----------------------------------------

            def _h_schema(self, network: str) -> None:
                self._send_json(schema_document())

            def _h_fleet(self, network: str) -> None:
                overview = fleet_mod.fleet_overview(
                    api.monitor_server,
                    api._clock(),
                    report_interval_s=api.dashboard.report_interval_s,
                )
                self._send_json(overview)

            def _h_networks(self, network: str) -> None:
                self._send_json(api.monitor_server.networks())

            def _h_server_metrics(self, network: str) -> None:
                self._send_json(api.monitor_server.self_metrics_document())

            # -- stream handlers ---------------------------------------------

            def _serve_stream(self, topic: str) -> None:
                """Subscribe to ``topic`` and pump SSE frames until EOF.

                The response is a long-lived ``text/event-stream`` body:
                headers go out manually (no Content-Length), then the
                handler thread blocks in :func:`pump` moving events from
                its bounded subscription queue into the socket, emitting
                comment heartbeats while the topic is quiet.  The
                subscription is deregistered on any exit path so a gone
                client never leaks queue memory.
                """
                params = self._query_params()
                try:
                    heartbeat_s = float(params.get("heartbeat", str(DEFAULT_HEARTBEAT_S)))
                    limit = int(params["limit"]) if "limit" in params else None
                except ValueError:
                    self._send_json(
                        {"error": "heartbeat must be a float, limit an int"}, code=400
                    )
                    return
                if heartbeat_s <= 0 or (limit is not None and limit < 1):
                    self._send_json(
                        {"error": "heartbeat must be > 0 and limit >= 1"}, code=400
                    )
                    return
                # The SSE resume cursor: the Last-Event-ID header a
                # reconnecting EventSource sends wins; the query
                # parameter serves clients that cannot set headers.
                # Anything non-integer is treated as absent (a fresh
                # subscription), matching EventSource behaviour.
                raw_cursor = self.headers.get(
                    "Last-Event-ID", params.get("last_event_id")
                )
                last_event_ids: Optional[Dict[str, int]] = None
                if raw_cursor is not None:
                    try:
                        last_event_ids = {topic: int(raw_cursor)}
                    except ValueError:
                        last_event_ids = None
                hub = api.monitor_server.stream
                subscription = hub.subscribe([topic], last_event_ids=last_event_ids)
                try:
                    self.send_response(200)
                    self.send_header("Content-Type", "text/event-stream")
                    self.send_header("Cache-Control", "no-cache")
                    self.end_headers()
                    pump(
                        subscription,
                        self.wfile,
                        heartbeat_s=heartbeat_s,
                        limit=limit,
                        retry_ms=DEFAULT_RETRY_MS,
                    )
                finally:
                    hub.unsubscribe(subscription)

            def _h_stream(self, network: str) -> None:
                self._serve_stream(FLEET_TOPIC)

            def _h_network_stream(self, network: str) -> None:
                # Unknown networks are legal: subscribing does not create
                # a shard, the stream simply stays quiet until the
                # network's first batch arrives (heartbeats still flow).
                self._serve_stream(network_topic(network))

            # -- network-scoped handlers -------------------------------------

            def _h_network_detail(self, network: str) -> None:
                document = api.monitor_server.network_document(network)
                if document is None:
                    self._send_json({"error": f"unknown network {network!r}"}, code=404)
                    return
                self._send_json(document)

            def _h_network_summary(self, network: str) -> None:
                dashboard = self._network_dashboard(network)
                if dashboard is not None:
                    self._send_json(dashboard.to_json_dict(api._clock()))

            def _h_network_nodes(self, network: str) -> None:
                dashboard = self._network_dashboard(network)
                if dashboard is not None:
                    self._send_json(dashboard.node_rows(api._clock()))

            def _h_network_links(self, network: str) -> None:
                dashboard = self._network_dashboard(network)
                if dashboard is not None:
                    self._send_json(dashboard.link_rows())

            def _h_network_delivery(self, network: str) -> None:
                dashboard = self._network_dashboard(network)
                if dashboard is not None:
                    self._send_json(dashboard.pdr_rows())

            def _h_network_alerts(self, network: str) -> None:
                dashboard = self._network_dashboard(network)
                if dashboard is None:
                    return
                now = api._clock()
                dashboard.alerts.evaluate(now)
                self._send_json(
                    [alert.to_json_dict() for alert in dashboard.alerts.active()]
                )

            def _h_network_health(self, network: str) -> None:
                dashboard = self._network_dashboard(network)
                if dashboard is None:
                    return
                scores = health_mod.network_health(
                    dashboard.store, api._clock(), dashboard.report_interval_s
                )
                self._send_json(
                    {
                        str(node): {
                            "score": score.score,
                            "liveness": score.liveness,
                            "delivery": score.delivery,
                            "spectrum": score.spectrum,
                            "battery": score.battery,
                        }
                        for node, score in scores.items()
                    }
                )

            def _h_network_history(self, network: str) -> None:
                from repro.errors import StorageError
                from repro.monitor.rollup import (
                    bucket_document,
                    rollup_packet_rate,
                    rollup_status_field,
                )

                dashboard = self._network_dashboard(network)
                if dashboard is None:
                    return
                params = self._query_params()
                try:
                    node = int(params["node"])
                    interval = float(params.get("interval", "300"))
                except (KeyError, ValueError):
                    self._send_json(
                        {"error": "need ?node=<int>[&field=...][&interval=<s>]"},
                        code=400,
                    )
                    return
                field = params.get("field")
                if field is not None:
                    from repro.monitor.records import StatusRecord
                    import dataclasses
                    valid = {f.name for f in dataclasses.fields(StatusRecord)}
                    if field not in valid:
                        self._send_json(
                            {"error": f"unknown status field {field!r}"}, code=400
                        )
                        return
                try:
                    if field is None:
                        series = rollup_packet_rate(
                            dashboard.store, interval_s=interval, node=node
                        )
                    else:
                        series = rollup_status_field(
                            dashboard.store, node=node, field=field,
                            interval_s=interval,
                        )
                except StorageError as exc:
                    self._send_json({"error": str(exc)}, code=400)
                    return
                self._send_json(
                    [bucket_document(bucket, interval) for bucket in series.buckets()]
                )

            def _h_network_dot(self, network: str) -> None:
                dashboard = self._network_dashboard(network)
                if dashboard is not None:
                    self._send(200, dashboard.render_dot().encode("utf-8"), "text/plain")

            def _h_network_ingest(self, network: str) -> None:
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length)
                # The codec is negotiated via Content-Type; absent or JSON
                # types run the JSON path.
                codec = codec_for_content_type(self.headers.get("Content-Type"))
                result = api.monitor_server.ingest_encoded(raw, codec, network_id=network)
                if result.ok:
                    self._send_json(
                        {
                            "ok": True,
                            "accepted_packets": result.accepted_packets,
                            "accepted_status": result.accepted_status,
                            "duplicates": result.duplicates,
                        }
                    )
                else:
                    self._send_json({"ok": False, "error": result.error}, code=400)

            # -- ui handlers --------------------------------------------------

            def _h_index(self, network: str) -> None:
                from repro.monitor.webview import render_html
                page = render_html(api.dashboard, api._clock())
                self._send(200, page.encode("utf-8"), "text/html")

            def _h_fleet_page(self, network: str) -> None:
                from repro.monitor.webview import render_fleet_html
                overview = fleet_mod.fleet_overview(
                    api.monitor_server,
                    api._clock(),
                    report_interval_s=api.dashboard.report_interval_s,
                )
                page = render_fleet_html(overview)
                self._send(200, page.encode("utf-8"), "text/html")

            def _h_network_page(self, network: str) -> None:
                from repro.monitor.webview import render_html
                dashboard = self._network_dashboard(network)
                if dashboard is not None:
                    page = render_html(dashboard, api._clock(), network_id=network)
                    self._send(200, page.encode("utf-8"), "text/html")

            def _h_text(self, network: str) -> None:
                text = api.dashboard.render_text(api._clock())
                self._send(200, (_INDEX_HTML % text).encode("utf-8"), "text/html")

        return Handler
