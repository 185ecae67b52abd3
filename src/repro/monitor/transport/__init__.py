"""Pluggable ingest transports for the monitoring server.

A *codec* (:mod:`repro.monitor.codec`) decides how a record batch is
encoded; a *transport* decides how encoded batches reach the server.
Two transports ship:

* :class:`~repro.monitor.transport.http.HttpIngestTransport` — the paper's path: the threaded HTTP
  server with per-request codec negotiation via ``Content-Type``.
* :class:`~repro.monitor.transport.udp.UdpIngestTransport` — stateless, loss-tolerant telemetry
  datagrams with per-(network, node) sequence-gap accounting, so the
  record loss UDP permits is *measured*, not ignored.

Each transport implements
:class:`~repro.monitor.transport.base.IngestTransport` and can be attached
to a :class:`~repro.monitor.server.MonitorServer` via
``attach_transport``, which surfaces its counters under the
``transports`` key of ``GET /api/v1/server``.
"""
