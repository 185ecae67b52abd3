"""Property: the event heap fires callbacks exactly as a sorted list would.

The engine keeps its queue as a heap of ``(time, priority, seq, event)``
tuples.  The oracle here keeps the same entries in a plain sorted list
(``bisect.insort``, pop from the front), so the entry that fires next is
the least ``(time, priority, insertion)`` entry by construction.  Random
plans drive both through the same scripted callbacks — ``call_at``,
``call_in`` and ``call_every`` with tied times and priorities,
cancellations from outside and from inside callbacks, ``stop()``, and
``run(until=...)``/``max_events`` slices — and the firing logs, the
returned counts and the clocks must agree.  The engine's own log is also
checked directly: a one-shot event fires at most once, nothing fires
after it is cancelled, and once the queue is drained every one-shot event
that was not cancelled before its time has fired exactly once.
"""

import bisect
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Simulator

#: Offsets on a coarse grid, so times and priorities tie often.
OFFSETS = (0.0, 0.5, 1.0, 1.5, 3.0)
#: A plan schedules at most this many callbacks (spawning stops there).
MAX_SCHEDULED = 40


class _Entry:
    __slots__ = ("callback", "cancelled")

    def __init__(self, callback):
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _Repeating:
    def __init__(self):
        self.current = None
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        if self.current is not None:
            self.current.cancel()


class SortedListSim:
    """The engine's documented semantics over a sorted list of entries."""

    def __init__(self):
        self.now = 0.0
        self._pending = []
        self._seq = itertools.count()
        self._stopped = False

    def call_at(self, time, callback, priority=0):
        assert time >= self.now
        entry = _Entry(callback)
        bisect.insort(self._pending, (time, priority, next(self._seq), entry))
        return entry

    def call_in(self, delay, callback, priority=0):
        return self.call_at(self.now + delay, callback, priority)

    def call_every(self, interval, callback, start=None, priority=0):
        handle = _Repeating()

        def fire():
            if handle.cancelled:
                return
            callback()
            if not handle.cancelled:
                handle.current = self.call_at(self.now + interval, fire, priority)

        first = self.now + interval if start is None else start
        handle.current = self.call_at(first, fire, priority)
        return handle

    def stop(self):
        self._stopped = True

    def run(self, until=None, max_events=None):
        self._stopped = False
        processed = 0
        while self._pending and not self._stopped:
            if max_events is not None and processed >= max_events:
                break
            time, _, _, entry = self._pending[0]
            if entry.cancelled:
                del self._pending[0]
                continue
            if until is not None and time > until:
                break
            del self._pending[0]
            self.now = time
            entry.callback()
            processed += 1
        if until is not None and until > self.now:
            self.now = until
        return processed


#: How one callback is scheduled and what it does when it fires.
specs = st.fixed_dictionaries(
    {
        "how": st.sampled_from(["at", "in", "every"]),
        "offset": st.sampled_from(OFFSETS),
        "priority": st.integers(-1, 1),
        # call_every: explicit first firing (offset from now) or None.
        "start": st.one_of(st.none(), st.sampled_from(OFFSETS)),
        # call_every: the callback cancels its own handle on this firing.
        "fires": st.integers(1, 3),
        # labels (schedule order) this callback cancels when it fires
        "cancels": st.lists(st.integers(0, MAX_SCHEDULED), max_size=2),
        # later specs this callback schedules when it fires
        "spawns": st.lists(st.integers(1, 4), max_size=2),
        "stops": st.booleans(),
    }
)

plans = st.fixed_dictionaries(
    {
        "specs": st.lists(specs, min_size=1, max_size=10),
        "initial": st.lists(st.integers(0, 9), min_size=1, max_size=8),
        "cancel_first": st.lists(st.integers(0, 8), max_size=3),
        # (until offset from now or None, max_events or None)
        "slices": st.lists(
            st.tuples(
                st.one_of(st.none(), st.sampled_from(OFFSETS)),
                st.one_of(st.none(), st.integers(0, 4)),
            ),
            max_size=4,
        ),
    }
)


def play(sim, plan):
    """Run ``plan`` on ``sim``; returns the firing log and per-slice
    results, plus what the direct checks need."""
    log = []
    handles = []
    repeating = set()
    cancelled_at = {}
    chosen = plan["specs"]

    def cancel(label):
        if label < len(handles):
            cancelled_at.setdefault(label, len(log))
            handles[label].cancel()

    def schedule(index):
        if len(handles) >= MAX_SCHEDULED:
            return
        spec = chosen[index % len(chosen)]
        label = len(handles)
        fired = [0]

        def callback():
            fired[0] += 1
            log.append((label, sim.now))
            for target in spec["cancels"]:
                cancel(target)
            if spec["how"] == "every" and fired[0] >= spec["fires"]:
                cancel(label)
            for step in spec["spawns"]:
                # Only later specs, so spawning terminates.
                if index + step < len(chosen):
                    schedule(index + step)
            if spec["stops"]:
                sim.stop()

        offset, priority = spec["offset"], spec["priority"]
        handles.append(None)
        if spec["how"] == "at":
            handles[label] = sim.call_at(sim.now + offset, callback, priority=priority)
        elif spec["how"] == "in":
            handles[label] = sim.call_in(offset, callback, priority=priority)
        else:
            repeating.add(label)
            start = None if spec["start"] is None else sim.now + spec["start"]
            handles[label] = sim.call_every(
                offset or 0.5, callback, start=start, priority=priority
            )

    for index in plan["initial"]:
        schedule(index)
    for label in plan["cancel_first"]:
        cancel(label)
    slices = []
    for until, max_events in plan["slices"]:
        stop_at = None if until is None else sim.now + until
        slices.append((sim.run(until=stop_at, max_events=max_events), sim.now))
    # Drain: a run that fires nothing has emptied the queue.
    while sim.run():
        pass
    return log, slices, repeating, cancelled_at, len(handles)


@settings(max_examples=300, deadline=None)
@given(plan=plans)
def test_engine_fires_in_sorted_list_order(plan):
    log, slices, repeating, cancelled_at, scheduled = play(Simulator(), plan)
    oracle_log, oracle_slices, *_ = play(SortedListSim(), plan)
    assert log == oracle_log
    assert slices == oracle_slices

    firings = {}
    for position, (label, _) in enumerate(log):
        firings.setdefault(label, []).append(position)
        # Nothing fires after it was cancelled.
        assert position < cancelled_at.get(label, len(log) + 1)
    for label in range(scheduled):
        if label in repeating:
            continue
        if label in cancelled_at and not firings.get(label):
            continue
        # Every one-shot event that was not cancelled first fired exactly once.
        assert len(firings.get(label, [])) == 1, (label, firings)
