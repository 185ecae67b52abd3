"""Layer attribution for the traced benchmark run.

Two sources of spans, both owned by the benchmark:

* **Engine callbacks** arrive through the public ``Simulator.profiler``
  seam: the engine asks the profiler for a span named after each event
  callback's ``__qualname__``, and :data:`CALLBACK_LAYERS` maps that name
  to a layer.  A name missing from the table is charged to
  ``unattributed``.
* **Layer entry points** (:data:`WRAPS`) are replaced, for the duration of
  the traced run only, by wrappers that open a nested span around the
  original function.  Callbacks that the program binds when it builds a
  scenario (radio receive handlers, client capture hooks, periodic
  timers) are only seen if the wrappers are installed *before* the
  scenario is constructed.

A span's self time is its duration minus the durations of the spans
opened inside it, so the self times of all spans add up to the duration
of the outermost one.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, Iterator, List, Optional, Tuple

#: Layers named after the modules they cover, in report order.
LAYERS = (
    "sim", "phy", "mac", "routing", "client", "codec", "uplink", "server",
    "store", "fleet", "stream", "alerts", "rollup", "dashboard",
)
UNATTRIBUTED = "unattributed"

#: Engine-callback ``__qualname__`` -> layer.  ``Simulator.call_every``
#: hides the periodic callback behind its own ``fire`` closure, so those
#: events open a ``sim`` span and the wrapped periodic methods (hello and
#: route timers, client flushes, mobility steps) nest inside it.  The
#: application traffic generators are the simulated world's traffic source and
#: count as ``sim``.
CALLBACK_LAYERS: Dict[str, str] = {
    "Simulator.call_every.<locals>.fire": "sim",
    "PeriodicWorkload._schedule_next.<locals>.fire": "sim",
    "PoissonWorkload._schedule_next.<locals>.fire": "sim",
    "BurstyWorkload._schedule_burst.<locals>.burst": "sim",
    "BurstyWorkload._burst_message": "sim",
    "EventWorkload.start.<locals>.check": "sim",
    "Channel.transmit.<locals>.<lambda>": "phy",
    "CsmaMac._attempt": "mac",
    "CsmaMac._transmit_now.<locals>.<lambda>": "mac",
    "CsmaMac._tx_complete.<locals>.<lambda>": "mac",
    "CsmaMac.send_ack.<locals>.fire": "mac",
    "CsmaMac.send_ack.<locals>.fire.<locals>.done": "mac",
    "MeshNode._trigger_route_broadcast.<locals>.fire": "routing",
    "MeshNode._handle_data_flood.<locals>.relay": "routing",
    "OutOfBandUplink.send.<locals>.deliver": "uplink",
    "OutOfBandUplink.send.<locals>.<lambda>": "uplink",
    "OutOfBandUplink.send.<locals>.deliver.<locals>.<lambda>": "uplink",
}

#: (module, attribute path, layer, label).  The label names the span
#: inside its layer; several named per-layer metrics are read per label.
#: Private names appear where the program binds a method as a callback
#: at construction time, which makes it the layer's real entry point.
WRAPS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Simulator.run", "sim", "engine"),
    ("repro.sim.trace", "TraceLog.emit", "sim", "trace"),
    ("repro.sim.mobility", "RandomWaypointMobility._step", "sim", "mobility"),
    ("repro.phy.channel", "Channel.transmit", "phy", "transmit"),
    ("repro.phy.channel", "Channel.is_busy", "phy", "cad"),
    ("repro.phy.reachability", "_BoundIndex._on_topology_change", "phy", "invalidate"),
    ("repro.phy.reachability", "LinkBudgetCache._on_topology_change", "phy", "invalidate"),
    ("repro.phy.regional", "DutyCycleTracker.used_airtime", "phy", "duty"),
    ("repro.mesh.mac", "CsmaMac.send", "mac", "send"),
    ("repro.mesh.mac", "CsmaMac.send_ack", "mac", "send_ack"),
    ("repro.mesh.mac", "CsmaMac.handle_ack", "mac", "handle_ack"),
    ("repro.mesh.node", "MeshNode.send_message", "routing", "send_message"),
    ("repro.mesh.node", "MeshNode._on_reception", "routing", "receive"),
    ("repro.mesh.node", "MeshNode._frame_transmitted", "routing", "frame_tx"),
    ("repro.mesh.node", "MeshNode._send_hello", "routing", "hello"),
    ("repro.mesh.node", "MeshNode._send_route_broadcast", "routing", "route_broadcast"),
    ("repro.mesh.node", "MeshNode._maintenance", "routing", "maintenance"),
    ("repro.mesh.node", "MeshNode.status", "routing", "status"),
    ("repro.monitor.client", "MonitorClient.flush", "client", "flush"),
    ("repro.monitor.client", "MonitorClient._packet_in", "client", "capture"),
    ("repro.monitor.client", "MonitorClient._packet_out", "client", "capture"),
    ("repro.monitor.uplink", "OutOfBandUplink.send", "uplink", "send"),
    ("repro.monitor.uplink", "OutOfBandUplink.wire_size", "uplink", "wire_size"),
    ("repro.monitor.codec", "JsonCodec.encode", "codec", "encode"),
    ("repro.monitor.codec", "BinaryCodec.encode", "codec", "encode"),
    ("repro.monitor.codec", "BinaryCodec.decode", "codec", "decode"),
    ("repro.monitor.records", "RecordBatch.from_json_bytes", "codec", "decode"),
    ("repro.monitor.server", "MonitorServer.ingest_json", "server", "ingest"),
    ("repro.monitor.server", "MonitorServer.ingest_binary", "server", "ingest"),
    ("repro.monitor.server", "MonitorServer.ingest_encoded", "server", "ingest"),
    ("repro.monitor.server", "MonitorServer.submit", "server", "submit"),
    ("repro.monitor.server", "MonitorServer._ingest", "server", "process"),
    ("repro.monitor.server", "MonitorServer.sweep_alerts", "server", "sweep"),
    ("repro.monitor.server", "MonitorServer.materialize_tiles", "server", "tiles"),
    ("repro.monitor.storage", "MetricsStore.add_packet_records", "store", "write"),
    ("repro.monitor.storage", "MetricsStore.add_status_records", "store", "write"),
    ("repro.monitor.storage", "MetricsStore.note_batch", "store", "write"),
    ("repro.monitor.storage", "MetricsStore.packet_records", "store", "scan"),
    ("repro.monitor.storage", "MetricsStore.status_records", "store", "read"),
    ("repro.monitor.fleet", "materialized_tile", "fleet", "tile"),
    ("repro.monitor.fleet", "fleet_overview", "fleet", "overview"),
    ("repro.monitor.fleet", "TileAggregate.observe_batch", "fleet", "observe"),
    ("repro.monitor.fleet", "TileAggregate.observe_packet", "fleet", "observe"),
    ("repro.monitor.fleet", "TileAggregate.observe_status", "fleet", "observe"),
    ("repro.monitor.fleet", "TileAggregate.node_delta", "fleet", "observe"),
    ("repro.monitor.stream.hub", "StreamHub.publish", "stream", "publish"),
    ("repro.monitor.alerts", "AlertEngine.observe", "alerts", "observe"),
    ("repro.monitor.alerts", "AlertEngine.evaluate_changes", "alerts", "sweep"),
    ("repro.monitor.alerts", "AlertEngine.evaluate", "alerts", "sweep"),
    ("repro.monitor.rollup", "IncrementalRollup.add", "rollup", "add"),
    ("repro.monitor.rollup", "IncrementalRollup.drain_updates", "rollup", "drain"),
    ("repro.monitor.rollup", "bucket_document", "rollup", "document"),
    ("repro.monitor.dashboard", "Dashboard.render_text", "dashboard", "render"),
    ("repro.monitor.dashboard", "Dashboard.to_json_dict", "dashboard", "render"),
    ("repro.monitor.health", "node_health", "dashboard", "health"),
    ("repro.monitor.health", "network_health", "dashboard", "health"),
    ("repro.monitor.health", "network_health_score", "dashboard", "health"),
    ("repro.monitor.metrics", "link_quality", "dashboard", "metrics"),
    ("repro.monitor.metrics", "pdr_matrix", "dashboard", "metrics"),
    ("repro.monitor.metrics", "network_pdr", "dashboard", "metrics"),
    ("repro.monitor.metrics", "delivery_latency", "dashboard", "metrics"),
    ("repro.monitor.metrics", "type_breakdown", "dashboard", "metrics"),
)

#: Store reads return lazy generators; the traced run drains them inside
#: the span so the scan is charged to ``store`` and not to whoever
#: iterates.  Callers see the same records in the same order.
EAGER_LABELS = frozenset({"scan", "read"})

_clock = time.perf_counter

Key = Tuple[str, str]


class Tracer:
    """Nested span accounting: per (layer, label) self time and calls."""

    def __init__(self) -> None:
        self.self_s: DefaultDict[Key, float] = defaultdict(float)
        self.incl_s: DefaultDict[Key, float] = defaultdict(float)
        self.calls: DefaultDict[Key, int] = defaultdict(int)
        self._stack: List[List[Any]] = []

    def reset(self) -> None:
        """Forget everything recorded so far (spans still open are kept)."""
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()

    def enter(self, key: Key) -> None:
        self._stack.append([key, _clock(), 0.0])

    def exit(self) -> None:
        key, started, children = self._stack.pop()
        duration = _clock() - started
        self.self_s[key] += duration - children
        self.incl_s[key] += duration
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """The outermost span: time not covered by any other span is
        charged to ``unattributed``."""
        self.enter((UNATTRIBUTED, "outside spans"))
        try:
            yield
        finally:
            self.exit()

    # -- aggregates ------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(value for (name, _), value in self.self_s.items() if name == layer)

    def label_self_s(self, layer: str, label: str) -> float:
        return self.self_s.get((layer, label), 0.0)

    def label_incl_s(self, layer: str, label: str) -> float:
        """Time inside ``label`` spans including their children."""
        return self.incl_s.get((layer, label), 0.0)

    def label_calls(self, layer: str, label: str) -> int:
        return self.calls.get((layer, label), 0)

    def total_s(self) -> float:
        return sum(self.self_s.values())


class _EngineSpan:
    """Context manager the engine opens around one event callback."""

    __slots__ = ("_tracer", "_key")

    def __init__(self, tracer: Tracer, key: Key) -> None:
        self._tracer = tracer
        self._key = key

    def __enter__(self) -> None:
        self._tracer.enter(self._key)

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self._tracer.exit()
        return False


class EngineProfiler:
    """Object for the ``Simulator.profiler`` seam.

    The engine calls ``span(callback.__qualname__)`` for every event while
    ``enabled`` is true; each name maps to a layer through
    :data:`CALLBACK_LAYERS`.  ``seen`` counts events per name so tests can
    check that the table covers every callback a run produced.
    """

    enabled = True

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._spans: Dict[str, _EngineSpan] = {}
        self.seen: DefaultDict[str, int] = defaultdict(int)

    def span(self, name: str) -> _EngineSpan:
        self.seen[name] += 1
        span = self._spans.get(name)
        if span is None:
            layer = CALLBACK_LAYERS.get(name, UNATTRIBUTED)
            span = self._spans[name] = _EngineSpan(self._tracer, (layer, name))
        return span

    @property
    def unmapped(self) -> List[str]:
        """Callback names seen that the table does not map."""
        return sorted(name for name in self.seen if name not in CALLBACK_LAYERS)


def _wrap(fn: Callable[..., Any], tracer: Tracer, key: Key, eager: bool) -> Callable[..., Any]:
    """``fn`` inside a span; with ``eager`` its iterator is drained in it."""
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        enter(key)
        try:
            result = fn(*args, **kwargs)
            return iter(list(result)) if eager else result
        finally:
            exit_()

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    return wrapper


class Instrumentation:
    """Installs the :data:`WRAPS` wrappers and restores the originals.

    ``missing`` lists table entries whose target no longer exists in the
    program; their time then shows up in the enclosing span's layer.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        for module_name, path, layer, label in WRAPS:
            self._install_one(module_name, path, (layer, label))

    def _install_one(self, module_name: str, path: str, key: Key) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}:{path}")
            return
        owner: Any = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(f"{module_name}:{path}")
                return
        name = parts[-1]
        raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if raw is None:
            self.missing.append(f"{module_name}:{path}")
            return
        eager = key[1] in EAGER_LABELS
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(_wrap(raw.__func__, self.tracer, key, eager))
        else:
            replacement = _wrap(raw, self.tracer, key, eager)
        self._set(owner, name, raw, replacement)
        if not isinstance(owner, type):
            # A module-level function is also imported by name into other
            # modules (``from repro.monitor.fleet import materialized_tile``);
            # replace every such alias so no call path escapes the span.
            for other in list(sys.modules.values()):
                if other is owner or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                if other.__dict__.get(name) is raw:
                    self._set(other, name, raw, replacement)

    def _set(self, owner: Any, name: str, original: Any, replacement: Any) -> None:
        setattr(owner, name, replacement)
        self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Instrumentation]:
    """Wrappers installed for the body of the ``with`` block only."""
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    try:
        yield instrumentation
    finally:
        instrumentation.uninstall()


def attach_engine_profiler(sim: Any, tracer: Tracer) -> EngineProfiler:
    """Route ``sim``'s event callbacks into ``tracer`` via the profiler seam."""
    profiler = EngineProfiler(tracer)
    sim.profiler = profiler
    return profiler


def callback_table(profiler: Optional[EngineProfiler]) -> List[Tuple[str, str, int]]:
    """(qualname, layer, events) for every callback the run produced."""
    if profiler is None:
        return []
    return [
        (name, CALLBACK_LAYERS.get(name, UNATTRIBUTED), count)
        for name, count in sorted(profiler.seen.items(), key=lambda item: -item[1])
    ]
