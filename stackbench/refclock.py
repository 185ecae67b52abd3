"""CPU time scaled to a reference host speed.

On a shared host the interpreter's speed swings by up to about 1.8x for
seconds at a time, as other tenants load the machine; CPU time alone
then varies more between runs than any change worth detecting.  A
:class:`SegmentClock` cuts a job into short segments and runs a fixed
piece of interpreter work, the *probe*, at every cut.  Each segment's
CPU time is scaled by ``REFERENCE_PROBE_S / probe``, with the probe time
taken as the median of the probes around the segment.  A segment that
ran while the host was slow is scaled down by as much as the probe next
to it was slowed, so the result reads as CPU seconds on a host where the
probe takes :data:`REFERENCE_PROBE_S`.

The probe is the benchmark's own code, so a change to the program under
test never changes it.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple, TypeVar

T = TypeVar("T")

#: Probe CPU time the scaled figures are expressed against (roughly the
#: probe's time on an unloaded 2-core x86-64 host with CPython 3.11).
REFERENCE_PROBE_S = 0.0003
#: Probes on each side of a segment that set its speed.
PROBE_WINDOW = 4


def _cpu() -> float:
    return time.process_time()


def _probe_work() -> None:
    table: Dict[int, float] = {}
    rows: List[tuple] = []
    for index in range(1000):
        key = index % 61
        table[key] = table.get(key, 0.0) + index * 0.5
        rows.append((table[key], key, str(key)))
    rows.sort()
    total = 0.0
    for value, key, label in rows:
        total += value / (key + 1.0) + len(label)
    if total < 0:  # keeps the loop's result live
        raise AssertionError("unreachable")


def probe() -> float:
    """CPU seconds of a fixed mix of dict, list, string and float work.

    The work runs twice and only the second run is timed, so the probe
    measures the host's speed and not how much of the cache the job
    before it evicted.
    """
    _probe_work()
    started = _cpu()
    _probe_work()
    return _cpu() - started


class SegmentClock:
    """Times consecutive segments of one job, with a probe at every cut.

    Call :meth:`start` when the job starts and :meth:`lap` at the end of
    every segment.  Probe time is excluded from the segments.  With
    ``probing`` off (traced runs) no probe runs and only raw CPU seconds
    are kept.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.segments: List[float] = []
        self.probes: List[float] = []
        self._mark = 0.0

    def start(self) -> None:
        if self.probing:
            self.probes.append(probe())
        self._mark = _cpu()

    def lap(self) -> None:
        """Close the current segment."""
        self.segments.append(_cpu() - self._mark)
        if self.probing:
            self.probes.append(probe())
        self._mark = _cpu()

    def scaled(self) -> List[float]:
        """Each segment's CPU seconds at the reference speed."""
        if not self.probing:
            raise ValueError("a clock without probes has no reference speed")
        out = []
        for index, elapsed in enumerate(self.segments):
            window = self.probes[max(0, index - PROBE_WINDOW + 1): index + PROBE_WINDOW + 1]
            out.append(elapsed * REFERENCE_PROBE_S / statistics.median(window))
        return out


def timed(work: Callable[[], T]) -> Tuple[T, float]:
    """Run ``work`` once; returns its result and its CPU seconds at the
    reference speed, taken from probes just before and just after it."""
    before = [probe() for _ in range(PROBE_WINDOW)]
    started = _cpu()
    result = work()
    elapsed = _cpu() - started
    after = [probe() for _ in range(PROBE_WINDOW)]
    return result, elapsed * REFERENCE_PROBE_S / statistics.median(before + after)
