"""Observability layer: packet flight recorder, span profiler, captures.

Built *on top of* the simulation's ground-truth trace — nothing here
perturbs a run.  See ``docs/OBSERVABILITY.md`` for the tour and the
``repro trace`` CLI for the operator interface.
"""

from repro.obs.recorder import (
    ALL_VERDICTS,
    FlightRecorder,
    FragmentTrace,
    LinkStats,
    MessageTrace,
    TimelineEntry,
)
from repro.obs.spans import SPAN_SCHEMA, SpanProfiler, SpanStats
from repro.obs.ndjson import (
    TRACE_SCHEMA,
    CaptureFormatError,
    export_trace,
    read_trace,
    replay_into_recorder,
    validate_spans_file,
    validate_trace_file,
)

__all__ = [
    "ALL_VERDICTS",
    "CaptureFormatError",
    "FlightRecorder",
    "FragmentTrace",
    "LinkStats",
    "MessageTrace",
    "SPAN_SCHEMA",
    "SpanProfiler",
    "SpanStats",
    "TimelineEntry",
    "TRACE_SCHEMA",
    "export_trace",
    "read_trace",
    "replay_into_recorder",
    "validate_spans_file",
    "validate_trace_file",
]
