"""Unit tests for the reachability layer: link-budget cache epochs, the
grid index's candidate computation and incremental maintenance, the
brute-force oracle, bind rules, and ChannelConfig validation."""

import random

import pytest

from repro.api import (
    BruteForceReachability,
    Channel,
    ChannelConfig,
    GridReachabilityIndex,
    LinkBudgetCache,
    LinkModel,
    LoRaParams,
    PathLossParams,
    PropagationModel,
    ReachabilityIndex,
    Simulator,
    Topology,
)
from repro.errors import ConfigurationError

PARAMS = LoRaParams(spreading_factor=7)


def make_world(positions, seed=3, path_loss=None):
    topology = Topology(positions=dict(positions))
    link = LinkModel(path_loss or PathLossParams(), random.Random(seed))
    return topology, link


def bound_index(index, positions, seed=3, path_loss=None, cad_margin_db=3.0):
    topology, link = make_world(positions, seed=seed, path_loss=path_loss)
    budget = LinkBudgetCache(topology, link)
    index.bind(topology, link, budget, cad_margin_db)
    return topology, link, budget


class TestLinkBudgetCache:
    def test_loss_matches_direct_computation_and_counts_hits(self):
        topology, link = make_world({1: (0.0, 0.0), 2: (120.0, 0.0)})
        budget = LinkBudgetCache(topology, link)
        expected = link.path_loss_db(topology.distance(1, 2), 1, 2)
        assert budget.loss_db(1, 2) == expected
        assert budget.loss_db(2, 1) == expected  # symmetric key
        assert (budget.hits, budget.misses) == (1, 1)

    def test_move_invalidates_only_touched_links(self):
        topology, link = make_world(
            {1: (0.0, 0.0), 2: (100.0, 0.0), 3: (0.0, 100.0)}
        )
        budget = LinkBudgetCache(topology, link)
        budget.loss_db(1, 2)
        budget.loss_db(2, 3)
        stale = budget.loss_db(1, 3)
        topology.move(2, (150.0, 0.0))
        # Links touching node 2 recompute; the (1, 3) entry stays warm.
        assert budget.loss_db(1, 2) == link.path_loss_db(topology.distance(1, 2), 1, 2)
        hits_before = budget.hits
        assert budget.loss_db(1, 3) == stale
        assert budget.hits == hits_before + 1

    def test_attenuation_change_drops_single_entry(self):
        topology, link = make_world({1: (0.0, 0.0), 2: (100.0, 0.0), 3: (0.0, 100.0)})
        budget = LinkBudgetCache(topology, link)
        before = budget.loss_db(1, 2)
        budget.loss_db(1, 3)
        link.set_link_attenuation(1, 2, 10.0)
        assert budget.loss_db(1, 2) == before + 10.0
        hits = budget.hits
        budget.loss_db(1, 3)
        assert budget.hits == hits + 1


class TestBruteForceReachability:
    def test_candidates_are_all_nodes_and_cached(self):
        index = BruteForceReachability()
        bound_index(index, {1: (0.0, 0.0), 2: (100.0, 0.0), 3: (9999.0, 0.0)})
        assert index.candidates(1, PARAMS) == {1, 2, 3}
        index.candidates(1, PARAMS)
        stats = index.stats()
        assert stats["rebuilds"] == 1
        assert stats["hits"] == 1

    def test_known_node_move_keeps_cached_set(self):
        index = BruteForceReachability()
        topology, _, _ = bound_index(index, {1: (0.0, 0.0), 2: (100.0, 0.0)})
        assert index.candidates(1, PARAMS) == {1, 2}
        topology.move(2, (200.0, 0.0))
        index.candidates(1, PARAMS)
        # Membership did not change, so the frozenset is served from cache.
        assert index.stats()["rebuilds"] == 1

    def test_unbound_index_raises(self):
        with pytest.raises(ConfigurationError):
            BruteForceReachability().candidates(1, PARAMS)

    def test_bind_twice_raises(self):
        index = BruteForceReachability()
        bound_index(index, {1: (0.0, 0.0)})
        topology, link = make_world({1: (0.0, 0.0)})
        with pytest.raises(ConfigurationError):
            index.bind(topology, link, LinkBudgetCache(topology, link), 3.0)


class TestGridReachabilityIndex:
    def test_prunes_hopeless_receivers_only(self):
        index = GridReachabilityIndex()
        # 20 m: always detectable; 50 km: provably not.
        topology, link, _ = bound_index(
            index, {1: (0.0, 0.0), 2: (20.0, 0.0), 3: (50_000.0, 0.0)}
        )
        got = index.candidates(1, PARAMS)
        assert 2 in got
        assert 3 not in got

    def test_move_invalidates_candidates(self):
        index = GridReachabilityIndex()
        topology, _, _ = bound_index(
            index, {1: (0.0, 0.0), 2: (20.0, 0.0), 3: (50_000.0, 0.0)}
        )
        assert 3 not in index.candidates(1, PARAMS)
        topology.move(3, (25.0, 0.0))
        assert 3 in index.candidates(1, PARAMS)
        topology.move(3, (50_000.0, 0.0))
        assert 3 not in index.candidates(1, PARAMS)

    def test_attenuation_change_invalidates(self):
        index = GridReachabilityIndex()
        _, link, _ = bound_index(index, {1: (0.0, 0.0), 2: (20.0, 0.0)})
        assert 2 in index.candidates(1, PARAMS)
        # Enough injected loss to push a 20 m link below CAD detection.
        link.set_link_attenuation(1, 2, 200.0)
        assert 2 not in index.candidates(1, PARAMS)

    def test_candidate_cache_is_per_sender_and_params(self):
        index = GridReachabilityIndex()
        bound_index(index, {1: (0.0, 0.0), 2: (20.0, 0.0), 3: (40.0, 0.0)})
        index.candidates(1, PARAMS)
        index.candidates(2, PARAMS)
        index.candidates(1, LoRaParams(spreading_factor=12))
        index.candidates(1, PARAMS)
        stats = index.stats()
        assert stats["rebuilds"] == 3
        assert stats["hits"] == 1

    def test_sf12_reaches_further_than_sf7(self):
        index = GridReachabilityIndex()
        # 400 m sits between the SF7 (~160 m) and SF12 (~760 m) detection
        # ranges for the default path loss with shadowing disabled.
        bound_index(
            index,
            {1: (0.0, 0.0), 2: (400.0, 0.0)},
            path_loss=PathLossParams(shadowing_sigma_db=0.0),
        )
        assert 2 not in index.candidates(1, LoRaParams(spreading_factor=7))
        assert 2 in index.candidates(1, LoRaParams(spreading_factor=12))

    def test_explicit_cell_size_validation(self):
        with pytest.raises(ConfigurationError):
            GridReachabilityIndex(cell_m=0.0)
        with pytest.raises(ConfigurationError):
            GridReachabilityIndex(cell_m=-5.0)

    def test_explicit_cell_size_matches_auto(self):
        world = {
            node: (float(37 * node % 500), float(91 * node % 500))
            for node in range(1, 40)
        }
        auto = GridReachabilityIndex()
        fixed = GridReachabilityIndex(cell_m=75.0)
        bound_index(auto, world)
        bound_index(fixed, world)
        for sender in (1, 7, 23):
            assert auto.candidates(sender, PARAMS) == fixed.candidates(sender, PARAMS)

    def test_protocol_conformance(self):
        assert isinstance(GridReachabilityIndex(), ReachabilityIndex)
        assert isinstance(BruteForceReachability(), ReachabilityIndex)
        assert isinstance(
            LinkModel(PathLossParams(), random.Random(1)), PropagationModel
        )


class TestChannelConfigValidation:
    def test_rejects_unknown_trace_mode(self):
        with pytest.raises(ConfigurationError):
            ChannelConfig(sub_sensitivity_trace="chatty")

    def test_rejects_bad_numeric_knobs(self):
        with pytest.raises(ConfigurationError):
            ChannelConfig(per_node_trace_max_nodes=-1)
        with pytest.raises(ConfigurationError):
            ChannelConfig(recent_horizon_s=0.0)
        with pytest.raises(ConfigurationError):
            ChannelConfig(slot_width_s=-1.0)

    def test_auto_mode_tracks_mesh_size(self):
        small = {node: (float(node), 0.0) for node in range(1, 4)}
        topology, link = make_world(small)
        channel = Channel(Simulator(), topology, link)
        assert channel.config.sub_sensitivity_trace == "auto"
        # Small mesh -> classic per-node events; the threshold knob flips it.
        tight = ChannelConfig(per_node_trace_max_nodes=2)
        topology2, link2 = make_world(small)
        channel2 = Channel(Simulator(), topology2, link2, config=tight)
        assert channel._per_node_trace is True
        assert channel2._per_node_trace is False
