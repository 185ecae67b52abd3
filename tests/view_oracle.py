"""The page-view document recomputed from the ``metrics.py`` scans.

``Dashboard.to_json_dict`` reads the store's ``ViewAggregate``; this
module builds the same document the way the dashboard did before the
aggregate existed, by scanning the stored records, so tests can compare
the two byte for byte.  A node's latest status is its highest-seq
record among ``store.status_records(node)``; its last batch time and
reported drops come from the caller's own record of the batches the
server ingested (``batches``: node -> (server time of its last batch,
highest cumulative drop count among its batches)), so no node value is
read from the state under test.
"""

import json
import math

from repro.monitor import health, metrics
from repro.monitor.alerts import AlertEngine, LowPdrRule, default_rules


class ScanLowPdrRule(LowPdrRule):
    """``LowPdrRule`` judged from a windowed ``metrics.pdr_matrix`` scan."""

    def conditions(self, store, now, snapshots):
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


def scan_window_delivery(aggregate, since, until):
    """``aggregate.window_delivery(since, until)`` from a scan of its event
    index: the pairs of the packets first sent in the window, with how
    many of those were also delivered in it."""
    sent = set()
    delivered = set()
    for ts, kind, src, dst, packet_id in aggregate._events:
        if since <= ts <= until:
            (sent if kind == 0 else delivered).add((src, dst, packet_id))
    counts = {}
    for src, dst, packet_id in sent:
        pair_sent, pair_delivered = counts.get((src, dst), (0, 0))
        counts[(src, dst)] = (pair_sent + 1, pair_delivered + ((src, dst, packet_id) in delivered))
    return counts


def scan_alert_engine(store, report_interval_s):
    """An engine with the default rules, ``LowPdrRule`` judged by scans."""
    rules = [
        ScanLowPdrRule() if isinstance(rule, LowPdrRule) else rule
        for rule in default_rules(report_interval_s)
    ]
    return AlertEngine(store, rules)


def scan_latest_status(store, node):
    """The node's stored status record of highest seq, or None."""
    return max(store.status_records(node), key=lambda record: record.seq, default=None)


def scan_scores(store, now, report_interval_s, batches):
    """Every node's health score, delivery from a windowed ``pdr_matrix``."""
    sent = {}
    delivered = {}
    since = now - health.PDR_WINDOW_S
    for (src, _dst), pair in metrics.pdr_matrix(store, since=since, until=now).items():
        sent[src] = sent.get(src, 0) + pair.sent
        delivered[src] = delivered.get(src, 0) + pair.delivered
    scores = {}
    for node in sorted(batches):
        status = scan_latest_status(store, node)
        liveness = health.liveness_component(batches[node][0], now, report_interval_s)
        delivery = delivered[node] / sent[node] if sent.get(node) else None
        spectrum = health.spectrum_component(None if status is None else status.duty_utilisation)
        battery = health.battery_component(None if status is None else status.battery_v)
        score = health.node_score(liveness, delivery, spectrum, battery)
        scores[node] = health.HealthScore(node, score, liveness, delivery, spectrum, battery)
    return scores


def scan_node_rows(store, now, scores, batches):
    """The ``nodes`` panel: one row per node that sent a batch."""
    rows = []
    for node in sorted(batches):
        status = scan_latest_status(store, node)
        last, drops = batches[node]
        rows.append({
            "node": node,
            "last_seen_age_s": now - last,
            "uptime_s": status.uptime_s if status else None,
            "battery_v": status.battery_v if status else None,
            "queue": status.queue_depth if status else None,
            "routes": status.route_count if status else None,
            "neighbors": status.neighbor_count if status else None,
            "duty": status.duty_utilisation if status else None,
            "tx_frames": status.tx_frames if status else None,
            "drops": status.drops if status else None,
            "client_drops": drops,
            "health": scores[node].score,
        })
    return rows


def scan_document(dashboard, now, batches):
    """``dashboard``'s page view at ``now`` from the scans.

    ``batches`` is the caller's record of the ingested batches (see the
    module docstring).  The dashboard must have no server or flight
    recorder attached, so it has no alerts panel either: the alerts are
    the server's, checked against :func:`scan_alert_engine` on their own.
    """
    store = dashboard.store
    scores = scan_scores(store, now, dashboard.report_interval_s, batches)
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
        "nodes": scan_node_rows(store, now, scores, batches),
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
        "alerts": None,
        "server": None,
        "drops": None,
    })
    return document


def canonical(document):
    """The document as the bytes a comparison should see."""
    return json.dumps(document, sort_keys=True)
