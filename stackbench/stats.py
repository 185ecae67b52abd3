"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: A tail percentile is only reported with at least this many samples
#: beyond it, so one slow call cannot set it on its own.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(
    values: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> Tuple[float, float]:
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(q, value)``: with ``n`` samples the nearest-rank percentile
    ``q = 100 * (n - min_beyond) / n`` selects the sample that has exactly
    ``min_beyond`` larger-ranked samples after it.  Fewer than
    ``min_beyond + 1`` samples have no such percentile.
    """
    count = len(values)
    if count < min_beyond + 1:
        raise ValueError(
            f"a tail needs at least {min_beyond + 1} samples, got {count}"
        )
    ordered = sorted(values)
    q = 100.0 * (count - min_beyond) / count
    return q, float(ordered[count - min_beyond - 1])


def sum_of_fastest(rows: Sequence[Sequence[float]]) -> float:
    """Sum over aligned segments of each segment's fastest repetition.

    ``rows`` holds one list of segment times per repetition of the same
    job.  Interference from other work on the host only ever slows a
    segment, and it comes in bursts shorter than a repetition, so taking
    each segment's minimum before summing removes it while keeping every
    segment's own cost.
    """
    if not rows:
        raise ValueError("no repetitions")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("repetitions are not split into the same segments")
    return float(sum(min(row[index] for row in rows) for index in range(width)))
