"""NDJSON capture format for trace events and span profiles.

A trace capture is newline-delimited JSON: one **header** line carrying
the schema tag and free-form metadata, then one line per trace event::

    {"schema": "repro.obs.trace/1", "meta": {...}, "events": 1234}
    {"t": 12.5, "kind": "phy.tx", "node": 3, "data": {"tx_id": 17, ...}}
    ...

The format round-trips through :class:`~repro.sim.trace.TraceEvent`, so a
file written by a campaign worker can be replayed into a
:class:`~repro.obs.recorder.FlightRecorder` offline (``repro trace why
--trace capture.ndjson``).  Span exports are flat — one aggregate line
per span name, each self-tagged with ``repro.obs.span/1`` (see
:mod:`repro.obs.spans`).

:func:`validate_trace_file` / :func:`validate_spans_file` are the CI
smoke-test hooks: structural checks only (schema tag, required fields,
parseable JSON), no semantic replay.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import SPAN_SCHEMA
from repro.sim.trace import TraceEvent, TraceLog

#: schema tag on the header line of every trace capture
TRACE_SCHEMA = "repro.obs.trace/1"


class CaptureFormatError(ReproError):
    """A capture file failed structural validation."""


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    return {"t": event.time, "kind": event.kind, "node": event.node, "data": event.data}


def event_from_dict(raw: Dict[str, Any]) -> TraceEvent:
    return TraceEvent(
        float(raw["t"]), str(raw["kind"]), raw.get("node"), dict(raw.get("data", {}))
    )


def export_trace(
    trace: TraceLog,
    path: Union[str, Path],
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the retained events of ``trace`` as an NDJSON capture.

    Returns:
        The number of event lines written (the header is not counted).
    """
    events = list(trace.events())
    header = {
        "schema": TRACE_SCHEMA,
        "meta": meta or {},
        "events": len(events),
        "total_emitted": trace.total_emitted,
    }
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(event_to_dict(event), sort_keys=True) + "\n")
    return len(events)


def read_trace(path: Union[str, Path]) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Load a capture: returns ``(header, events)``.

    Raises:
        CaptureFormatError: when the file is not a trace capture.
    """
    header, numbered = _read_numbered(path)
    return header, [event for _, event in numbered]


def _read_numbered(
    path: Union[str, Path],
) -> Tuple[Dict[str, Any], List[Tuple[int, TraceEvent]]]:
    """:func:`read_trace` with each event's line number."""
    header: Optional[Dict[str, Any]] = None
    events: List[Tuple[int, TraceEvent]] = []
    for lineno, raw in _json_lines(path):
        if header is None:
            if raw.get("schema") != TRACE_SCHEMA:
                raise CaptureFormatError(
                    f"{path}: line {lineno} is not a {TRACE_SCHEMA} header "
                    f"(got schema={raw.get('schema')!r})"
                )
            header = raw
            continue
        try:
            events.append((lineno, event_from_dict(raw)))
        except (KeyError, TypeError, ValueError) as exc:
            raise CaptureFormatError(f"{path}: bad event on line {lineno}: {exc}") from exc
    if header is None:
        raise CaptureFormatError(f"{path}: empty capture (no header line)")
    return header, events


def _json_lines(path: Union[str, Path]) -> Iterator[Tuple[int, Dict[str, Any]]]:
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CaptureFormatError(f"{path}: line {lineno} is not JSON: {exc}") from exc
            if not isinstance(raw, dict):
                raise CaptureFormatError(f"{path}: line {lineno} is not a JSON object")
            yield lineno, raw


def validate_trace_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Structurally validate a trace capture; returns summary stats.

    Raises:
        CaptureFormatError: on the first structural problem.
    """
    header, events = read_trace(path)
    declared = header.get("events")
    if declared is not None and declared != len(events):
        raise CaptureFormatError(
            f"{path}: header declares {declared} events, file has {len(events)}"
        )
    kinds: Dict[str, int] = {}
    last_t = float("-inf")
    monotonic = True
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if event.time < last_t:
            monotonic = False
        last_t = event.time
    if not monotonic:
        raise CaptureFormatError(f"{path}: event times are not monotonically non-decreasing")
    return {"schema": header["schema"], "events": len(events), "kinds": kinds}


def validate_spans_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Structurally validate a span export; returns summary stats."""
    names: List[str] = []
    for lineno, raw in _json_lines(path):
        if raw.get("schema") != SPAN_SCHEMA:
            raise CaptureFormatError(
                f"{path}: line {lineno} schema={raw.get('schema')!r}, want {SPAN_SCHEMA}"
            )
        for field in ("name", "count", "wall_s"):
            if field not in raw:
                raise CaptureFormatError(f"{path}: line {lineno} missing field {field!r}")
        names.append(str(raw["name"]))
    return {"schema": SPAN_SCHEMA, "spans": len(names), "names": names}


def replay_into_recorder(path: Union[str, Path], recorder: FlightRecorder) -> int:
    """Feed a capture file into a :class:`FlightRecorder`; returns event count.

    Raises:
        CaptureFormatError: when the file is not a trace capture, or an
            event lacks a field the recorder reads or holds one of the
            wrong type (for example a ``phy.below_sensitivity`` event
            without ``count``, as written before that event carried one).
    """
    _, events = _read_numbered(path)
    for lineno, event in events:
        try:
            recorder.observe(event)
        except KeyError as exc:
            raise CaptureFormatError(
                f"{path}: line {lineno}: {event.kind} event lacks field {exc.args[0]!r}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise CaptureFormatError(
                f"{path}: line {lineno}: {event.kind} event has a bad field: {exc}"
            ) from exc
    return len(events)
