"""Per-node and network health scoring.

A single 0..100 score per node summarises four weighted components:

* **liveness** (40 %): how recently the node's last batch arrived,
  relative to the expected report interval;
* **delivery** (30 %): the node's PDR as a traffic source;
* **spectrum headroom** (15 %): distance from the duty-cycle cap;
* **battery** (15 %): voltage between the cutoff (3.0 V) and full (4.2 V).

Components without data score neutral (their weight redistributes), so a
node that never sent traffic is not punished for unknown PDR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.monitor import metrics
from repro.monitor.storage import MetricsStore

BATTERY_EMPTY_V = 3.0
BATTERY_FULL_V = 4.2

_W_LIVENESS = 0.40
_W_DELIVERY = 0.30
_W_SPECTRUM = 0.15
_W_BATTERY = 0.15

#: The delivery component's window: the trailing half hour of traffic.
PDR_WINDOW_S = 1800.0


@dataclass(frozen=True)
class HealthScore:
    """One node's health decomposition."""

    node: int
    score: float
    liveness: Optional[float]
    delivery: Optional[float]
    spectrum: Optional[float]
    battery: Optional[float]


def _clamp01(value: float) -> float:
    return max(0.0, min(1.0, value))


def liveness_component(
    last_seen: Optional[float], now: float, report_interval_s: float
) -> Optional[float]:
    """1.0 up to one interval of silence, linearly to 0.0 at five."""
    if last_seen is None:
        return None
    silence = now - last_seen
    return _clamp01(1.0 - (silence - report_interval_s) / (4.0 * report_interval_s))


def spectrum_component(duty_utilisation: Optional[float]) -> Optional[float]:
    """Headroom below the duty-cycle cap."""
    return None if duty_utilisation is None else _clamp01(1.0 - duty_utilisation)


def battery_component(battery_v: Optional[float]) -> Optional[float]:
    """Charge between the cutoff and full voltage."""
    if battery_v is None:
        return None
    return _clamp01((battery_v - BATTERY_EMPTY_V) / (BATTERY_FULL_V - BATTERY_EMPTY_V))


def node_score(
    liveness: Optional[float],
    delivery: Optional[float],
    spectrum: Optional[float],
    battery: Optional[float],
) -> float:
    """A node's 0..100 score from its components (None = no data).

    Missing components redistribute their weight over the others; a node
    with no component at all scores NaN.  The ingest path calls it for
    each node a batch changed (:class:`~repro.monitor.fleet.TileAggregate`),
    so it takes plain values and builds nothing.
    """
    weight = total = 0.0
    if liveness is not None:
        weight += _W_LIVENESS
        total += _W_LIVENESS * liveness
    if delivery is not None:
        weight += _W_DELIVERY
        total += _W_DELIVERY * delivery
    if spectrum is not None:
        weight += _W_SPECTRUM
        total += _W_SPECTRUM * spectrum
    if battery is not None:
        weight += _W_BATTERY
        total += _W_BATTERY * battery
    if weight == 0:
        return math.nan
    return 100.0 * total / weight


def _scores(
    store: MetricsStore,
    nodes: List[int],
    now: float,
    report_interval_s: float,
    pdr_window_s: float,
) -> Dict[int, HealthScore]:
    """Scores for ``nodes`` from one PDR matrix over the trailing window.

    A node's delivery is its delivered over its sent packets, summed over
    every pair it is the source of.
    """
    sent: Dict[int, int] = {}
    delivered: Dict[int, int] = {}
    for (src, _dst), pair in metrics.pdr_matrix(store, since=now - pdr_window_s, until=now).items():
        sent[src] = sent.get(src, 0) + pair.sent
        delivered[src] = delivered.get(src, 0) + pair.delivered
    scores: Dict[int, HealthScore] = {}
    for node in nodes:
        liveness = liveness_component(store.last_seen(node), now, report_interval_s)
        delivery = delivered[node] / sent[node] if sent.get(node) else None
        status = store.latest_status(node)
        spectrum = spectrum_component(None if status is None else status.duty_utilisation)
        battery = battery_component(None if status is None else status.battery_v)
        score = node_score(liveness, delivery, spectrum, battery)
        scores[node] = HealthScore(node, score, liveness, delivery, spectrum, battery)
    return scores


def node_health(
    store: MetricsStore,
    node: int,
    now: float,
    report_interval_s: float = 60.0,
    pdr_window_s: float = PDR_WINDOW_S,
) -> HealthScore:
    """Compute the health score for one node."""
    return _scores(store, [node], now, report_interval_s, pdr_window_s)[node]


def network_health(
    store: MetricsStore,
    now: float,
    report_interval_s: float = 60.0,
) -> Dict[int, HealthScore]:
    """Health scores for every known node, from one PDR matrix."""
    return _scores(store, store.nodes(), now, report_interval_s, PDR_WINDOW_S)


def network_health_score(scores: Mapping[int, HealthScore]) -> float:
    """Single network-level score: the mean of the defined node scores
    (``scores`` as :func:`network_health` returns them)."""
    defined = [health.score for health in scores.values() if not math.isnan(health.score)]
    return sum(defined) / len(defined) if defined else math.nan
