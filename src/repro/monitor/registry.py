"""Per-network shard management for the multi-tenant monitoring server.

The production deployment shape is one monitoring server ingesting
telemetry from **many independent LoRa mesh networks** (a fleet of
smart-campus sites, say).  Records from different networks must never
mix: node ``7`` on campus A and node ``7`` on campus B are different
radios.  The :class:`NetworkRegistry` therefore gives every network its
own :class:`NetworkShard` — a private metrics store plus the per-node
dedup windows and ingest counters that go with it — created lazily on
the first batch from that network.

Scaling knobs
-------------

* ``max_networks`` bounds resident shards; when a new network would
  exceed the bound the least-recently-active shard is evicted (flushed,
  closed, forgotten).  A network that reports again later simply gets
  a fresh shard — telemetry is a rolling window anyway.  The flush
  counters of an evicted store are kept
  (:meth:`NetworkRegistry.flush_totals`), so the server's flush ledger
  never goes backwards.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.monitor.alerts import AlertEngine, default_rules
from repro.monitor.fleet import TileAggregate
from repro.monitor.ingest import DEFAULT_NETWORK_ID, SeqWindow
from repro.monitor.rollup import IncrementalRollup
from repro.monitor.storage import FlushStats, MetricsStore

StoreFactory = Callable[[str], MetricsStore]

#: Bucket width of the per-shard traffic rollup feeding ``rollup-update``
#: stream events (matches the dashboard history default).
SHARD_ROLLUP_INTERVAL_S = 300.0


class NetworkShard:
    """One network's slice of the server: store, dedup state, counters.

    Beyond the ingest bookkeeping, a shard owns the incremental read
    path the push pipeline feeds at ingest time (all under the server
    lock): a :class:`~repro.monitor.fleet.TileAggregate` so fleet tiles
    are snapshot reads, an
    :class:`~repro.monitor.rollup.IncrementalRollup` whose dirty buckets
    become ``rollup-update`` stream events, and an
    :class:`~repro.monitor.alerts.AlertEngine` evaluated O(delta) via
    :meth:`~repro.monitor.alerts.AlertEngine.observe` and by the paced
    sweep: the network's only alert state, which every view reads.
    """

    def __init__(
        self, network_id: str, store: MetricsStore, report_interval_s: float
    ) -> None:
        self.network_id = network_id
        self.store = store
        #: Cached fleet-tile scores over the store's node state and
        #: delivery, which its own aggregate holds.
        self.tile = TileAggregate(store)
        #: Per-network traffic rollup fed record-by-record.
        self.rollup = IncrementalRollup(interval_s=SHARD_ROLLUP_INTERVAL_S)
        #: The network's one alert state (observe path and paced sweep);
        #: thresholds scale with the clients' report interval.
        self.alerts = AlertEngine(store, default_rules(report_interval_s))
        #: Per-node dedup windows, private to this network — the same
        #: node address in two networks never shares a window.
        self.packet_windows: Dict[int, SeqWindow] = {}
        self.status_windows: Dict[int, SeqWindow] = {}
        #: Server clock of the last processed batch (None before any).
        self.last_batch_at: Optional[float] = None
        self.batches_ingested = 0
        self.records_ingested = 0
        self.dedup_hits = 0
        #: Batches that arrived as UDP telemetry datagrams (subset of
        #: ``batches_ingested``; maintained by the UDP transport).
        self.datagram_batches = 0

    def to_json_dict(self) -> Dict[str, object]:
        """Per-network ingest counters for the fleet/summary documents."""
        return {
            "network": self.network_id,
            "batches_ingested": self.batches_ingested,
            "records_ingested": self.records_ingested,
            "dedup_hits": self.dedup_hits,
            "datagram_batches": self.datagram_batches,
            "last_batch_at": self.last_batch_at,
        }


class NetworkRegistry:
    """Lazy id -> shard mapping with LRU eviction."""

    def __init__(
        self,
        store_factory: Optional[StoreFactory] = None,
        max_networks: Optional[int] = None,
        report_interval_s: float = 60.0,
    ) -> None:
        """Args:
            store_factory: builds a network's store on first contact;
                defaults to a fresh in-memory :class:`MetricsStore` per
                network.  Receives the network id, so a durable factory
                can derive one SQLite file per network.
            max_networks: bound on resident shards (None = unbounded).
            report_interval_s: the clients' report interval, handed to
                every shard's alert rules.
        """
        if max_networks is not None and max_networks < 1:
            raise ConfigurationError(
                f"max_networks must be >= 1 or None, got {max_networks}"
            )
        self._store_factory: StoreFactory = (
            store_factory
            if store_factory is not None
            else (lambda network_id: MetricsStore())  # reprolint: allow[RL006] -- the registry owns shard stores; close() flushes and closes every one
        )
        self._max_networks = max_networks
        self._report_interval_s = report_interval_s
        # Reentrant: get_or_create() -> get() and -> _evict_one() nest.
        self._lock = threading.RLock()
        #: Insertion/access-ordered: the first entry is the LRU candidate.
        #: Mutated from every handler thread (lazy creation + LRU
        #: move_to_end on reads), hence the lock.
        self._shards: "OrderedDict[str, NetworkShard]" = OrderedDict()  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        #: The flush counters of every store closed on eviction (None
        #: until a store that keeps them is evicted).
        self._evicted_flushes: Optional[FlushStats] = None  # guarded-by: _lock

    # -- lookup ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._shards)

    def __contains__(self, network_id: str) -> bool:
        with self._lock:
            return network_id in self._shards

    def __iter__(self) -> Iterator[NetworkShard]:
        with self._lock:
            return iter(list(self._shards.values()))

    def network_ids(self) -> List[str]:
        """Resident network ids, sorted for stable output."""
        with self._lock:
            return sorted(self._shards)

    def get(self, network_id: str) -> Optional[NetworkShard]:
        """The shard for ``network_id`` if resident (marks it active)."""
        with self._lock:
            shard = self._shards.get(network_id)
            if shard is not None:
                self._shards.move_to_end(network_id)
            return shard

    def get_or_create(self, network_id: str) -> NetworkShard:
        """The shard for ``network_id``, creating (and evicting) as needed.

        Atomic under the registry lock: two threads racing on the first
        batch from a network get the *same* shard, not two stores.
        """
        with self._lock:
            shard = self.get(network_id)
            if shard is not None:
                return shard
            if self._max_networks is not None:
                while len(self._shards) >= self._max_networks:
                    self._evict_one()
            shard = NetworkShard(
                network_id, self._store_factory(network_id), self._report_interval_s
            )
            self._shards[network_id] = shard
            return shard

    def adopt(self, network_id: str, store: MetricsStore) -> NetworkShard:
        """Register a shard around an externally constructed store.

        Used for the ``default`` network when a caller injects its own
        store into the server (the historical single-network API).
        """
        with self._lock:
            if network_id in self._shards:
                raise ConfigurationError(f"network {network_id!r} already registered")
            shard = NetworkShard(network_id, store, self._report_interval_s)
            self._shards[network_id] = shard
            return shard

    # -- eviction -------------------------------------------------------------

    def _evict_one(self) -> None:
        """Evict the least-recently-active shard, keeping its flush counters."""
        with self._lock:
            network_id, shard = next(iter(self._shards.items()))
            self._close_shard(shard)
            del self._shards[network_id]
            self.evictions += 1
            stats = shard.store.flush_stats
            if stats is not None:
                if self._evicted_flushes is None:
                    self._evicted_flushes = FlushStats()
                self._evicted_flushes.add(stats)

    def flush_totals(self) -> Optional[FlushStats]:
        """The flush counters of every store this registry has held: the
        evicted ones, then the resident ones in LRU order.

        None when no such store keeps them (in-memory stores).  Taken
        under the registry's lock, so an evicted store is counted
        exactly once and the counts never decrease.
        """
        with self._lock:
            totals: Optional[FlushStats] = None
            for stats in [self._evicted_flushes] + [
                shard.store.flush_stats for shard in self._shards.values()
            ]:
                if stats is None:
                    continue
                if totals is None:
                    totals = FlushStats()
                totals.add(stats)
            return totals

    @staticmethod
    def _close_shard(shard: NetworkShard) -> None:
        shard.store.flush()
        shard.store.close()

    def close(self) -> None:
        """Flush and close every shard's store (idempotent)."""
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            self._close_shard(shard)

    # -- convenience ----------------------------------------------------------

    @property
    def default(self) -> NetworkShard:
        """The implicit single-network shard (created on first use)."""
        return self.get_or_create(DEFAULT_NETWORK_ID)
