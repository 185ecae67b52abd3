"""Ingestion-pipeline primitives shared by the monitoring server.

Split out of :mod:`repro.monitor.server` when the server went
multi-tenant (one server, many mesh networks): these are the wire-level
building blocks — the per-batch result, the wire/self-metrics counters
and the bounded dedup window — that every per-network shard reuses.  Import them from this module or from the
:mod:`repro.api` facade.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

#: The implicit network single-network deployments live in.  Every API
#: that grew a ``network_id`` parameter defaults to this, so pre-fleet
#: callers keep working unchanged.
DEFAULT_NETWORK_ID = "default"

#: Network ids appear in URLs, file names (per-network SQLite stores)
#: and JSON keys, so they are restricted to a conservative token.
_NETWORK_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def is_valid_network_id(network_id: str) -> bool:
    """True when ``network_id`` is a legal network identifier."""
    return bool(_NETWORK_ID_RE.match(network_id))


def validate_network_id(network_id: str) -> str:
    """Return ``network_id`` or raise ``ValueError`` for an illegal one."""
    if not isinstance(network_id, str) or not is_valid_network_id(network_id):
        raise ValueError(
            f"invalid network id {network_id!r}: expected 1-64 characters "
            "from [A-Za-z0-9_.-], starting with an alphanumeric"
        )
    return network_id


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one batch ingestion."""

    ok: bool
    accepted_packets: int = 0
    accepted_status: int = 0
    duplicates: int = 0
    error: Optional[str] = None


@dataclass(frozen=True)
class ServerStats:
    """Wire counters snapshot (see :attr:`~repro.monitor.server.MonitorServer.stats`)."""

    batches_ok: int = 0
    batches_rejected: int = 0
    records_accepted: int = 0
    duplicates: int = 0
    bytes_received: int = 0


@dataclass
class ServerSelfMetrics:
    """Ingestion-pipeline self-metrics ("monitor the monitor").

    Everything needed to answer "is the monitoring server itself
    healthy?" — exposed over ``GET /api/v1/server`` and on the dashboard.
    """

    bytes_received: int = 0
    batches_ingested: int = 0
    packet_records_ingested: int = 0
    status_records_ingested: int = 0
    dedup_hits: int = 0
    foreign_records_rejected: int = 0
    decode_failures: int = 0
    # The metrics object is owned by one MonitorServer, which serialises
    # every mutation under its ingest lock.
    store_flushes: int = 0  # guarded-by: MonitorServer._lock
    flush_latency_last_s: float = 0.0  # guarded-by: MonitorServer._lock
    flush_latency_max_s: float = 0.0  # guarded-by: MonitorServer._lock
    flush_latency_total_s: float = 0.0  # guarded-by: MonitorServer._lock

    @property
    def records_ingested(self) -> int:
        return self.packet_records_ingested + self.status_records_ingested

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "bytes_received": self.bytes_received,
            "batches_ingested": self.batches_ingested,
            "records_ingested": self.records_ingested,
            "packet_records_ingested": self.packet_records_ingested,
            "status_records_ingested": self.status_records_ingested,
            "dedup_hits": self.dedup_hits,
            "foreign_records_rejected": self.foreign_records_rejected,
            "decode_failures": self.decode_failures,
            "store_flushes": self.store_flushes,
            "flush_latency_last_ms": self.flush_latency_last_s * 1000.0,
            "flush_latency_max_ms": self.flush_latency_max_s * 1000.0,
            "flush_latency_total_ms": self.flush_latency_total_s * 1000.0,
        }


class SeqWindow:
    """Bounded per-node set of recently seen record sequence numbers.

    Sequence numbers are monotonically increasing per client, so keeping
    the recent window plus a low-water mark gives exact deduplication with
    bounded memory: anything at or below the mark has been seen.
    """

    def __init__(self, capacity: int = 65536) -> None:
        # Windows live inside a NetworkShard; the server's ingest lock
        # serialises check_and_add with every other shard mutation.
        self._capacity = capacity
        self._seen: Set[int] = set()  # guarded-by: MonitorServer._lock
        self._low_water = -1  # guarded-by: MonitorServer._lock

    def check_and_add(self, seq: int) -> bool:
        """Record ``seq``; return True when it is new."""
        if seq <= self._low_water or seq in self._seen:
            return False
        self._seen.add(seq)
        if len(self._seen) > self._capacity:
            # Advance the low-water mark past the densest prefix.
            ordered = sorted(self._seen)
            cut = len(ordered) // 2
            self._low_water = ordered[cut - 1]
            self._seen = set(ordered[cut:])
        return True
