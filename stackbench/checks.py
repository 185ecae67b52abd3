"""Output checks.  Each returns a list of failure messages (empty = pass).

The benchmark runs every check before it prints anything, and exits
non-zero with the messages on stderr if any failed, so a wrong program
never produces a number.  The checks take plain values, so the tests can
feed each one a deliberately broken input.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: ``materialized_tile`` rounds PDR to 4 and health to 1 decimal places.
TILE_PDR_DIGITS = 4
HEALTH_TOLERANCE = 0.05 + 1e-9
#: On a simulated mesh the two health definitions differ by more than
#: rounding: a routing loop can bring a packet back to its origin, which
#: then reports a second first-attempt transmission of it.
#: ``TileAggregate.observe_packet`` counts that report in the node's
#: ``sent`` while ``metrics.pdr_matrix`` counts unique packet ids, so
#: the tile's delivery term (30 % weight) is lower for such nodes.  The
#: bound covers that known gap; a larger one is a new divergence.
MESH_HEALTH_TOLERANCE = 1.0
#: Largest tolerated gap between the dashboard's PDR and ground truth
#: (the bound experiment F2 holds the monitor to).
PDR_ACCURACY_BOUND = 0.05


def digest(document: Any) -> str:
    """Stable hash of a JSON-able summary of simulated statistics."""
    encoded = json.dumps(document, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def exactly_once(
    stored_seqs: Mapping[int, Sequence[int]],
    acked_below: Mapping[int, int],
    captured: Mapping[int, int],
    accepted_packets: int,
    duplicates_server: int,
    duplicates_calls: int,
    expected_duplicates: Optional[int] = None,
) -> List[str]:
    """Every acknowledged record is stored exactly once.

    Args:
        stored_seqs: node -> packet-record seqs found in the store.
        acked_below: node -> every seq below this was acknowledged to the
            client (so it must be stored).
        captured: node -> seqs issued by the client (``0..captured-1``);
            nothing outside that range may be stored.
        accepted_packets: packet records the server counts as accepted.
        duplicates_server: duplicates in the server's own stats.
        duplicates_calls: duplicates summed over the per-call results.
        expected_duplicates: when the input is known (fleet generator),
            the exact number of re-sent records.
    """
    failures: List[str] = []
    stored_total = 0
    for node in sorted(set(stored_seqs) | set(acked_below)):
        seqs = stored_seqs.get(node, ())
        stored_total += len(seqs)
        unique = set(seqs)
        if len(unique) != len(seqs):
            failures.append(f"node {node}: {len(seqs) - len(unique)} records stored twice")
        missing = [seq for seq in range(acked_below.get(node, 0)) if seq not in unique]
        if missing:
            failures.append(
                f"node {node}: {len(missing)} acknowledged records missing "
                f"from the store (first seq {missing[0]})"
            )
        limit = captured.get(node, 0)
        invented = [seq for seq in unique if seq >= limit or seq < 0]
        if invented:
            failures.append(f"node {node}: {len(invented)} stored records were never captured")
    if stored_total != accepted_packets:
        failures.append(
            f"server accepted {accepted_packets} packet records but the store holds {stored_total}"
        )
    if duplicates_server != duplicates_calls:
        failures.append(
            f"server counts {duplicates_server} duplicates, its call results {duplicates_calls}"
        )
    if expected_duplicates is not None and duplicates_server != expected_duplicates:
        failures.append(
            f"{expected_duplicates} records were re-sent but dedup absorbed {duplicates_server}"
        )
    return failures


def tile_pdr_matches_store(network: str, tile_pdr: Optional[float], store_pdr: float) -> List[str]:
    """The incremental tile's PDR equals PDR recomputed from the store."""
    if tile_pdr is None or store_pdr is None or math.isnan(store_pdr):
        if tile_pdr is None and (store_pdr is None or math.isnan(store_pdr)):
            return []
        return [f"{network}: tile PDR {tile_pdr} but store PDR {store_pdr}"]
    if abs(tile_pdr - round(store_pdr, TILE_PDR_DIGITS)) > 1e-12:
        return [f"{network}: tile PDR {tile_pdr} != store PDR {store_pdr:.6f}"]
    return []


def health_definitions_agree(
    network: str,
    tile_health: Optional[float],
    recomputed: float,
    tolerance: float = HEALTH_TOLERANCE,
) -> List[str]:
    """``TileAggregate.health`` and ``monitor/health.py`` agree within rounding."""
    if tile_health is None or math.isnan(recomputed):
        if tile_health is None and math.isnan(recomputed):
            return []
        return [f"{network}: tile health {tile_health} but health.py says {recomputed}"]
    if abs(tile_health - recomputed) > tolerance:
        return [f"{network}: tile health {tile_health} != health.py {recomputed:.3f}"]
    return []


def pdr_accuracy(observed: float, truth: float, bound: float = PDR_ACCURACY_BOUND) -> List[str]:
    """The dashboard's PDR is close to the ground-truth PDR of the same packets."""
    if math.isnan(observed) or math.isnan(truth):
        return [f"PDR undefined: dashboard {observed}, ground truth {truth}"]
    if abs(observed - truth) > bound:
        return [f"dashboard PDR {observed:.4f} is {abs(observed - truth):.4f} from truth {truth:.4f}"]
    return []


def same_digests(what: str, digests: Iterable[str]) -> List[str]:
    """All runs of one seed produced identical simulated statistics."""
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        return [f"{what}: runs of one seed disagree ({', '.join(distinct)})"]
    return []


def exercised(what: str, counters: Dict[str, float]) -> List[str]:
    """Each named counter is positive: the workload did what it claims."""
    return [f"{what}: {name} is {value}, expected > 0" for name, value in counters.items() if not value > 0]
