"""The monitoring system — the paper's contribution.

Client side (runs on every LoRa node):

* :class:`~repro.monitor.client.MonitorClient` hooks the node's packet
  in/out observation points, buffers :class:`~repro.monitor.records.PacketRecord`
  and periodic :class:`~repro.monitor.records.StatusRecord` snapshots, and
  ships them to the server in batches over an uplink,
* uplinks: :class:`~repro.monitor.uplink.OutOfBandUplink` (the paper's
  WiFi/HTTP path) and :class:`~repro.monitor.uplink.InBandUplink`
  (telemetry rides the mesh to a gateway node).

Server side:

* :class:`~repro.monitor.server.MonitorServer` validates, deduplicates and
  stores batches in a :class:`~repro.monitor.storage.MetricsStore` (or the
  SQLite-backed :class:`~repro.monitor.sqlitestore.SqliteMetricsStore`,
  whose buffered ``executemany`` write path is the high-throughput
  ingestion knob), processing each batch in the caller's thread; the
  pipeline's own :class:`~repro.monitor.ingest.ServerSelfMetrics` are served at
  ``GET /api/v1/server`` ("monitor the monitor"),
* the server is **multi-tenant**: each batch carries a ``network_id``
  (implicitly ``default``) and lands in its network's shard — own store,
  dedup windows and counters — managed by a
  :class:`~repro.monitor.registry.NetworkRegistry`;
  :mod:`~repro.monitor.fleet` aggregates the fleet overview,
* :mod:`~repro.monitor.metrics` computes the aggregations the dashboard
  shows (PDR, link quality, traffic matrix, airtime, latency),
* :class:`~repro.monitor.dashboard.Dashboard` renders text/DOT/JSON views,
* :mod:`~repro.monitor.httpapi` serves the versioned, network-scoped
  JSON API (:mod:`~repro.monitor.routes`) over real HTTP,
* :class:`~repro.monitor.alerts.AlertEngine` raises operational alerts,
* :mod:`~repro.monitor.health` scores per-node and network health.
"""
