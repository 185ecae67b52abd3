"""Alerting over the metrics store.

Rules inspect the store and report *conditions*; the engine turns
conditions into stateful alerts (raised once, cleared when the condition
disappears, kept in history) — what a network administrator watching the
paper's dashboard would act on.

An engine watches one store; a multi-tenant server gives each network
its own store and engine (``NetworkShard.alerts``, which every view
reads), so alert state never crosses tenants — node 7 going silent on
campus A raises nothing for node 7 on campus B.
"""

from __future__ import annotations

import math
from abc import ABC
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.monitor.storage import MetricsStore


@dataclass(frozen=True)
class Alert:
    """One active or historical alert."""

    rule: str
    node: Optional[int]
    severity: str
    message: str
    raised_at: float

    def to_json_dict(self) -> Dict[str, object]:
        """The alert as the JSON object the API and the stream share."""
        return {
            "rule": self.rule,
            "node": self.node,
            "severity": self.severity,
            "message": self.message,
            "raised_at": self.raised_at,
        }


@dataclass(frozen=True)
class NodeDelta:
    """Latest state of one node, as both alert paths judge it.

    Read by :meth:`from_store` from the node state the store's
    aggregate holds in memory (no query), for the O(delta) path and the
    sweep alike; fields the server does not know yet are None, and rules
    that need a None field answer "cannot judge" rather than clearing.
    """

    node: int
    last_seen: Optional[float] = None
    battery_v: Optional[float] = None
    duty_utilisation: Optional[float] = None
    queue_depth: Optional[int] = None

    @classmethod
    def from_store(cls, store: MetricsStore, node: int) -> "NodeDelta":
        """The node's snapshot: its status record of highest seq and last batch."""
        status = store.latest_status(node)
        return cls(
            node=node,
            last_seen=store.last_seen(node),
            battery_v=status.battery_v if status else None,
            duty_utilisation=status.duty_utilisation if status else None,
            queue_depth=status.queue_depth if status else None,
        )


def node_snapshots(store: MetricsStore) -> List[NodeDelta]:
    """One :meth:`NodeDelta.from_store` snapshot per node of ``store``, in node order."""
    return [NodeDelta.from_store(store, node) for node in store.nodes()]


class AlertRule(ABC):
    """A condition evaluated against the store."""

    #: Stable rule identifier used for alert state keys.
    name: str = "rule"
    severity: str = "warning"

    def conditions(
        self,
        store: MetricsStore,
        now: float,
        snapshots: Sequence[NodeDelta],
    ) -> List[Tuple[Optional[int], str]]:
        """Return (node, message) for every currently firing condition.

        Per-node rules are defined once, by :meth:`node_conditions`; the
        sweep judges every node of ``store`` from its
        :meth:`NodeDelta.from_store` snapshot, which ``snapshots`` holds
        (:func:`node_snapshots`; :meth:`AlertEngine.evaluate` builds them
        once for all its rules).  Cross-node rules override this.
        """
        firing: List[Tuple[Optional[int], str]] = []
        for delta in snapshots:
            messages = self.node_conditions(delta, now)
            if messages:
                firing.extend((delta.node, message) for message in messages)
        return firing

    def node_conditions(self, delta: "NodeDelta", now: float) -> Optional[List[str]]:
        """Firing messages for one node's delta, or None if not judgeable.

        The O(delta) path, and the one definition of a per-node rule
        (:meth:`conditions` reuses it): when a batch arrives the engine
        re-evaluates only the rules that can judge one node from the in-memory
        :class:`NodeDelta` snapshot the ingest pipeline hands over — no
        store reads at all, so the path never blocks on a durable store.
        Return None when this rule cannot judge from the delta (the
        condition is cross-node or windowed, like PDR over a traffic
        window, or the delta lacks the field): the rule then stays on
        the periodic :meth:`AlertEngine.evaluate` sweep and existing
        alert state is left untouched.  Return ``[]`` for judged-and-not
        -firing (clears an active alert).
        """
        return None


class SilentNodeRule(AlertRule):
    """A node known to the server stopped sending batches."""

    name = "silent_node"
    severity = "critical"

    def __init__(self, max_silence_s: float) -> None:
        self.max_silence_s = max_silence_s

    def node_conditions(self, delta: "NodeDelta", now: float) -> Optional[List[str]]:
        # A delta can only *clear* silence (the node just reported);
        # raising still needs the periodic sweep — absence of telemetry
        # produces no delta to observe.
        if delta.last_seen is None:
            return None
        silence = now - delta.last_seen
        if silence > self.max_silence_s:
            return [f"no telemetry for {silence:.0f}s"]
        return []


class LowPdrRule(AlertRule):
    """Delivery from some source fell below a threshold."""

    name = "low_pdr"
    severity = "warning"

    def __init__(self, threshold: float = 0.8, window_s: float = 1800.0, min_sent: int = 5) -> None:
        self.threshold = threshold
        self.window_s = window_s
        self.min_sent = min_sent

    def conditions(
        self,
        store: MetricsStore,
        now: float,
        snapshots: Sequence[NodeDelta],
    ) -> List[Tuple[Optional[int], str]]:
        """Pairs of ``metrics.pdr_matrix`` over the window, read from the
        store's aggregate (``snapshots`` are not needed)."""
        firing = []
        pairs = store.aggregate.window_delivery(now - self.window_s, now)
        for (src, dst), (sent, delivered) in sorted(pairs.items()):
            if sent < self.min_sent:
                continue
            pdr = delivered / sent if sent else math.nan
            if not math.isnan(pdr) and pdr < self.threshold:
                firing.append((src, f"PDR {pdr:.0%} to node {dst} ({delivered}/{sent})"))
        return firing


class DutyCycleRule(AlertRule):
    """A node's reported duty-cycle utilisation is close to the cap."""

    name = "duty_cycle"
    severity = "warning"

    def __init__(self, threshold: float = 0.8) -> None:
        self.threshold = threshold

    def node_conditions(self, delta: "NodeDelta", now: float) -> Optional[List[str]]:
        if delta.duty_utilisation is None:
            return None  # no status seen yet; cannot judge
        if delta.duty_utilisation >= self.threshold:
            return [f"duty-cycle utilisation {delta.duty_utilisation:.0%} of budget"]
        return []


class BatteryLowRule(AlertRule):
    """A node's battery voltage dropped below the threshold."""

    name = "battery_low"
    severity = "warning"

    def __init__(self, threshold_v: float = 3.4) -> None:
        self.threshold_v = threshold_v

    def node_conditions(self, delta: "NodeDelta", now: float) -> Optional[List[str]]:
        if delta.battery_v is None:
            return None  # no status seen yet; cannot judge
        if delta.battery_v < self.threshold_v:
            return [f"battery at {delta.battery_v:.2f} V"]
        return []


class QueueBacklogRule(AlertRule):
    """A node's MAC queue keeps growing (congestion)."""

    name = "queue_backlog"
    severity = "warning"

    def __init__(self, threshold: int = 10) -> None:
        self.threshold = threshold

    def node_conditions(self, delta: "NodeDelta", now: float) -> Optional[List[str]]:
        if delta.queue_depth is None:
            return None  # no status seen yet; cannot judge
        if delta.queue_depth >= self.threshold:
            return [f"MAC queue depth {delta.queue_depth}"]
        return []


def default_rules(report_interval_s: float = 60.0) -> List[AlertRule]:
    """The rule set the examples and experiments use.

    Silence threshold is 3 missed report intervals plus slack.
    """
    return [
        SilentNodeRule(max_silence_s=report_interval_s * 3 + 10.0),
        LowPdrRule(),
        DutyCycleRule(),
        BatteryLowRule(),
        QueueBacklogRule(),
    ]


#: Bound on the alert history ring.
HISTORY_LIMIT = 256


class AlertEngine:
    """Stateful alert evaluation.

    Two entry points share the same alert state:

    * :meth:`evaluate` — the periodic full sweep over every rule.
    * :meth:`observe` — the O(delta) path the ingest pipeline calls
      with just the nodes a batch touched; only rules that implement
      :meth:`AlertRule.node_conditions` participate.

    Each returns the alerts it raised (:meth:`observe` and
    :meth:`evaluate_changes` also those it cleared): that is how a
    caller learns of an alert.  History is a ring of the last
    :data:`HISTORY_LIMIT` alerts, so a long-running server's memory does
    not grow with alert churn; the cumulative :attr:`alerts_emitted`
    counter keeps the total observable after eviction.
    """

    def __init__(
        self,
        store: MetricsStore,
        rules: Optional[List[AlertRule]] = None,
    ) -> None:
        self.store = store
        self.rules = rules if rules is not None else default_rules()
        self._active: Dict[Tuple[str, Optional[int]], Alert] = {}
        self.history: Deque[Alert] = deque(maxlen=HISTORY_LIMIT)
        #: Alerts raised over the engine's lifetime (history may have
        #: evicted some; this counter never resets).
        self.alerts_emitted = 0

    @property
    def history_len(self) -> int:
        """Alerts currently retained in the bounded history ring."""
        return len(self.history)

    def _raise(self, rule: AlertRule, node: Optional[int], message: str, now: float) -> Alert:
        alert = Alert(
            rule=rule.name,
            node=node,
            severity=rule.severity,
            message=message,
            raised_at=now,
        )
        self._active[(rule.name, node)] = alert
        self.history.append(alert)
        self.alerts_emitted += 1
        return alert

    def evaluate(self, now: float) -> List[Alert]:
        """Re-evaluate all rules; returns newly *raised* alerts.

        Conditions that persist stay active without re-raising; conditions
        that disappeared are cleared.
        """
        raised: List[Alert] = []
        firing_keys = set()
        snapshots = node_snapshots(self.store)
        for rule in self.rules:
            for node, message in rule.conditions(self.store, now, snapshots):
                key = (rule.name, node)
                firing_keys.add(key)
                if key in self._active:
                    continue
                raised.append(self._raise(rule, node, message, now))
        for key in list(self._active):
            if key not in firing_keys:
                del self._active[key]
        return raised

    def evaluate_changes(self, now: float) -> Tuple[List[Alert], List[Alert]]:
        """Full sweep returning ``(raised, cleared)``.

        Same evaluation as :meth:`evaluate`, but also reports the
        alerts the sweep cleared — the shape the push pipeline needs to
        publish ``alert-raised``/``alert-cleared`` stream events from
        the periodic sweep (matching :meth:`observe`'s return).
        """
        before = dict(self._active)
        raised = self.evaluate(now)
        cleared = [
            alert for key, alert in before.items() if key not in self._active
        ]
        return raised, cleared

    def observe(
        self, now: float, deltas: Iterable["NodeDelta"]
    ) -> Tuple[List[Alert], List[Alert]]:
        """O(delta) evaluation from in-memory node snapshots.

        The ingest pipeline hands one :class:`NodeDelta` per node a
        batch touched; no store reads happen, so this is safe (and
        cheap) under the server lock.  Only rules that can judge one
        node from its snapshot take part (those returning non-None from
        :meth:`AlertRule.node_conditions`).  Returns ``(raised,
        cleared)`` — the push pipeline publishes both as stream events.
        Alerts raised by other rule/node combinations are untouched, so
        the periodic :meth:`evaluate` sweep and this path compose.
        """
        raised: List[Alert] = []
        cleared: List[Alert] = []
        for delta in deltas:
            for rule in self.rules:
                messages = rule.node_conditions(delta, now)
                if messages is None:
                    continue  # not judgeable from this delta; sweep owns it
                key = (rule.name, delta.node)
                if messages:
                    if key not in self._active:
                        raised.append(self._raise(rule, delta.node, messages[0], now))
                elif key in self._active:
                    cleared.append(self._active.pop(key))
        return raised, cleared

    def active(self) -> List[Alert]:
        """Currently firing alerts, oldest first."""
        return sorted(self._active.values(), key=lambda alert: alert.raised_at)
