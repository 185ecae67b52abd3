"""Telemetry export for offline analysis.

Dumps the metrics store to CSV (one file per record kind, spreadsheet
friendly) or JSONL (lossless, one record per line, reimportable).  This
is the interface between the live monitoring server and notebook-style
post-hoc analysis of a deployment.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Union

from repro.errors import DecodeError
from repro.monitor.records import PacketRecord, StatusRecord
from repro.monitor.storage import MetricsStore

PACKET_CSV_FIELDS = (
    "node", "seq", "ts", "dir", "src", "dst", "next_hop", "prev_hop",
    "ptype", "packet_id", "size", "rssi", "snr", "airtime_ms", "attempt",
)

STATUS_CSV_FIELDS = (
    "node", "seq", "ts", "uptime_s", "queue", "routes", "neighbors_n",
    "battery_v", "tx_frames", "tx_airtime_s", "retx", "drops", "duty",
    "originated", "delivered", "forwarded",
)


def export_packet_records_csv(store: MetricsStore, path: Union[str, Path]) -> int:
    """Write all packet records to a CSV file.

    Returns:
        Number of rows written.
    """
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=PACKET_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for record in store.packet_records():
            row = record.to_json_dict()
            row.pop("kind", None)
            writer.writerow(row)
            count += 1
    return count


def export_status_records_csv(store: MetricsStore, path: Union[str, Path]) -> int:
    """Write all status records to a CSV file (neighbor lists omitted —
    use JSONL for those).

    Returns:
        Number of rows written.
    """
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=STATUS_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for node in store.nodes():
            for record in store.status_records(node):
                row = record.to_json_dict()
                row.pop("kind", None)
                row.pop("neighbors", None)
                writer.writerow(row)
                count += 1
    return count


def export_jsonl(store: MetricsStore, path: Union[str, Path]) -> int:
    """Write every record (packet and status, with neighbor lists) as
    JSON lines.  Lossless up to the JSON field rounding.

    Each line is the record's out-of-band wire text
    (``to_json_text``), so an export reads like the batches that
    filled the store.

    Returns:
        Number of lines written.
    """
    count = 0
    with open(path, "w") as handle:
        for record in store.packet_records():
            handle.write(record.to_json_text())
            handle.write("\n")
            count += 1
        for node in store.nodes():
            for record in store.status_records(node):
                handle.write(record.to_json_text())
                handle.write("\n")
                count += 1
    return count


def import_jsonl(path: Union[str, Path], store: Optional[MetricsStore] = None) -> MetricsStore:
    """Rebuild a metrics store from a JSONL export.

    Args:
        path: file written by :func:`export_jsonl`.
        store: existing store to append into (a new one by default).  A
            buffering store flushes as its ``maybe_flush`` thresholds say.

    Raises:
        DecodeError: on a malformed line.
    """
    result = store if store is not None else MetricsStore()
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DecodeError(f"{path}:{line_number}: not JSON: {exc}") from exc
            kind = document.get("kind")
            if kind == "packet":
                result.add_packet_record(PacketRecord.from_json_dict(document))
            elif kind == "status":
                result.add_status_record(StatusRecord.from_json_dict(document))
            else:
                raise DecodeError(f"{path}:{line_number}: unknown record kind {kind!r}")
            result.maybe_flush()
    return result
