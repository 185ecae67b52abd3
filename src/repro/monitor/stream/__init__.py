"""Live push pipeline: delta events from ingest to connected clients.

The polling dashboard asks the server "what is the state now?"; this
package inverts that into "tell me what just changed".  Three layers:

* :mod:`repro.monitor.stream.events` — the versioned ``repro.stream/1``
  delta-event schema and its canonical JSON encoding;
* :mod:`repro.monitor.stream.hub` — the thread-safe pub/sub fan-out
  (:class:`StreamHub`) with bounded per-subscriber queues, lag/drop
  accounting and a bounded replay ring for ``Last-Event-ID`` resume;
* :mod:`repro.monitor.stream.sse` — Server-Sent-Events framing for the
  ``GET /api/v1/stream`` and ``GET /api/v1/networks/<id>/stream``
  routes.

The server publishes onto the hub at ingest time; HTTP handler threads
subscribe and pump frames; browsers consume them with ``EventSource``
and :class:`repro.monitor.client.SseStreamClient` consumes them from
scripts.  See docs/STREAMING.md for the contract.
"""
