"""The page-view document recomputed from the ``metrics.py`` scans.

``Dashboard.to_json_dict`` reads the store's ``ViewAggregate``; this
module builds the same document the way the dashboard did before the
aggregate existed, by scanning the stored records, so tests can compare
the two byte for byte.
"""

import json
import math

from repro.monitor import health, metrics
from repro.monitor.alerts import AlertEngine, LowPdrRule, default_rules


class ScanLowPdrRule(LowPdrRule):
    """``LowPdrRule`` judged from a windowed ``metrics.pdr_matrix`` scan."""

    def conditions(self, store, now, snapshots=None):
        firing = []
        pairs = metrics.pdr_matrix(store, since=now - self.window_s, until=now)
        for (src, dst), pair in sorted(pairs.items()):
            if pair.sent < self.min_sent:
                continue
            if not math.isnan(pair.pdr) and pair.pdr < self.threshold:
                firing.append(
                    (src, f"PDR {pair.pdr:.0%} to node {dst} ({pair.delivered}/{pair.sent})")
                )
        return firing


def scan_alert_engine(store, report_interval_s):
    """An engine with the default rules, ``LowPdrRule`` judged by scans."""
    rules = [
        ScanLowPdrRule() if isinstance(rule, LowPdrRule) else rule
        for rule in default_rules(report_interval_s)
    ]
    return AlertEngine(store, rules)


def scan_scores(store, now, report_interval_s):
    """Every node's health score, delivery from a windowed ``pdr_matrix``."""
    sent = {}
    delivered = {}
    since = now - health.PDR_WINDOW_S
    for (src, _dst), pair in metrics.pdr_matrix(store, since=since, until=now).items():
        sent[src] = sent.get(src, 0) + pair.sent
        delivered[src] = delivered.get(src, 0) + pair.delivered
    scores = {}
    for node in store.nodes():
        status = store.latest_status(node)
        liveness = health.liveness_component(store.last_seen(node), now, report_interval_s)
        delivery = delivered[node] / sent[node] if sent.get(node) else None
        spectrum = health.spectrum_component(None if status is None else status.duty_utilisation)
        battery = health.battery_component(None if status is None else status.battery_v)
        score = health.node_score(liveness, delivery, spectrum, battery)
        scores[node] = health.HealthScore(node, score, liveness, delivery, spectrum, battery)
    return scores


def scan_document(dashboard, alerts, now):
    """``dashboard``'s page view at ``now`` from the scans.

    ``alerts`` is the :func:`scan_alert_engine` evaluated alongside the
    dashboard's own engine, at the same times.  The dashboard must have
    no server or flight recorder attached.
    """
    store = dashboard.store
    alerts.evaluate(now)
    scores = scan_scores(store, now, dashboard.report_interval_s)
    latencies = metrics.delivery_latency(store)
    delivery = []
    for (src, dst), pair in sorted(metrics.pdr_matrix(store).items()):
        latency = latencies.get((src, dst))
        delivery.append({
            "src": src,
            "dst": dst,
            "sent": pair.sent,
            "delivered": pair.delivered,
            "pdr": pair.pdr,
            "latency_mean_s": latency.mean if latency else None,
            "latency_p95_s": latency.percentile(95) if latency else None,
        })
    document = {}
    if dashboard.network_id is not None:
        document["network"] = dashboard.network_id
    document.update({
        "now": now,
        "network_health": health.network_health_score(scores),
        "network_pdr": metrics.network_pdr(store),
        "nodes": dashboard._node_rows(now, scores),
        "links": [
            {
                "tx": link.tx,
                "rx": link.rx,
                "frames": link.frames,
                "rssi_mean": link.rssi_mean,
                "rssi_min": link.rssi_min,
                "rssi_max": link.rssi_max,
                "snr_mean": link.snr_mean,
            }
            for _key, link in sorted(metrics.link_quality(store).items())
        ],
        "delivery": delivery,
        "composition": [
            {
                "type": row.name,
                "frames": row.frames_out,
                "bytes": row.bytes_out,
                "airtime_s": row.airtime_s,
            }
            for row in metrics.type_breakdown(store)
        ],
        "alerts": [alert.to_json_dict() for alert in alerts.active()],
        "server": None,
        "drops": None,
    })
    return document


def canonical(document):
    """The document as the bytes a comparison should see."""
    return json.dumps(document, sort_keys=True)
