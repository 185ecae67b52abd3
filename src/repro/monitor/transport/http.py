"""HTTP as a pluggable transport.

:class:`~repro.monitor.httpapi.MonitoringHttpServer` predates the
transport seam and remains the canonical HTTP implementation (routes,
dashboards).  :class:`HttpIngestTransport` adapts it to
the :class:`~repro.monitor.transport.base.IngestTransport` interface so
the serve CLI and the self-metrics document treat HTTP and UDP
uniformly: one list of transports, each with ``start``/``stop`` and a
stats document.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.monitor.httpapi import MonitoringHttpServer
from repro.monitor.transport.base import IngestTransport


class HttpIngestTransport(IngestTransport):
    """Adapter presenting the HTTP server as an ingest transport."""

    name = "http"

    def __init__(self, http_server: MonitoringHttpServer) -> None:
        self.http_server = http_server
        self._started = False

    @property
    def url(self) -> str:
        return self.http_server.url

    def start(self) -> None:
        if not self._started:
            self.http_server.start()
            self._started = True

    def stop(self) -> None:
        if self._started:
            self.http_server.stop()
            self._started = False

    def stats_document(self) -> Dict[str, Any]:
        return {
            "transport": self.name,
            "url": self.http_server.url,
            "running": self._started,
        }
