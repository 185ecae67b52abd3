"""Unit tests for the per-network shard registry (multi-tenancy core)."""

import pytest

from repro.api import DEFAULT_NETWORK_ID, MetricsStore, NetworkRegistry
from repro.errors import ConfigurationError


class RecordingStore(MetricsStore):
    """A store that remembers flush/close calls (lifecycle assertions)."""

    def __init__(self):
        super().__init__()
        self.flushed = 0
        self.closed = 0

    def flush(self):
        self.flushed += 1
        return False

    def close(self):
        self.closed += 1


class TestLazyCreation:
    def test_get_returns_none_for_absent(self):
        registry = NetworkRegistry()
        assert registry.get("campus-a") is None
        assert len(registry) == 0

    def test_get_or_create_builds_one_shard_per_network(self):
        registry = NetworkRegistry()
        shard = registry.get_or_create("campus-a")
        assert shard is registry.get_or_create("campus-a")
        assert registry.get_or_create("campus-b") is not shard
        assert len(registry) == 2
        assert registry.network_ids() == ["campus-a", "campus-b"]

    def test_store_factory_receives_network_id(self):
        seen = []

        def factory(network_id):
            seen.append(network_id)
            return MetricsStore()

        registry = NetworkRegistry(store_factory=factory)
        registry.get_or_create("site-1")
        registry.get_or_create("site-2")
        assert seen == ["site-1", "site-2"]

    def test_shards_are_isolated(self):
        registry = NetworkRegistry()
        a = registry.get_or_create("a")
        b = registry.get_or_create("b")
        assert a.store is not b.store
        a.packet_windows[7] = object()
        assert 7 not in b.packet_windows

    def test_default_property(self):
        registry = NetworkRegistry()
        shard = registry.default
        assert shard.network_id == DEFAULT_NETWORK_ID
        assert registry.default is shard


class TestAdopt:
    def test_adopt_wraps_external_store(self):
        registry = NetworkRegistry()
        store = MetricsStore()
        shard = registry.adopt(DEFAULT_NETWORK_ID, store)
        assert shard.store is store
        assert registry.default is shard

    def test_double_adopt_rejected(self):
        registry = NetworkRegistry()
        registry.adopt("x", MetricsStore())
        with pytest.raises(ConfigurationError):
            registry.adopt("x", MetricsStore())


class TestEviction:
    def test_bound_validated(self):
        with pytest.raises(ConfigurationError):
            NetworkRegistry(max_networks=0)

    def test_lru_eviction_of_idle_shard(self):
        registry = NetworkRegistry(
            store_factory=lambda network_id: RecordingStore(), max_networks=2
        )
        first = registry.get_or_create("first")
        registry.get_or_create("second")
        registry.get_or_create("third")  # evicts "first" (least recent)
        assert registry.network_ids() == ["second", "third"]
        assert registry.evictions == 1
        assert first.store.flushed == 1 and first.store.closed == 1

    def test_access_refreshes_recency(self):
        registry = NetworkRegistry(max_networks=2)
        registry.get_or_create("first")
        registry.get_or_create("second")
        registry.get("first")  # now "second" is the LRU candidate
        registry.get_or_create("third")
        assert registry.network_ids() == ["first", "third"]

    def test_reappearing_network_gets_fresh_shard(self):
        registry = NetworkRegistry(max_networks=1)
        shard = registry.get_or_create("site")
        shard.batches_ingested = 5
        registry.get_or_create("newcomer")  # evicts "site"
        reborn = registry.get_or_create("site")
        assert reborn is not shard
        assert reborn.batches_ingested == 0


class TestClose:
    def test_close_flushes_and_closes_every_store(self):
        registry = NetworkRegistry(store_factory=lambda network_id: RecordingStore())
        stores = [registry.get_or_create(f"n{i}").store for i in range(3)]
        registry.close()
        assert all(store.flushed == 1 and store.closed == 1 for store in stores)

    def test_shard_counters_serialise(self):
        registry = NetworkRegistry()
        shard = registry.get_or_create("site")
        document = shard.to_json_dict()
        assert document["network"] == "site"
        assert document["batches_ingested"] == 0
