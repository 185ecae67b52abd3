"""Unit tests for the reachability layer: link-budget cache epochs, the
grid index's link tables and incremental maintenance, how a table follows
the nodes that changed, the brute-force oracle and bind rules."""

import random

import pytest

from repro.api import (
    BruteForceReachability,
    GridReachabilityIndex,
    LinkBudgetCache,
    LinkModel,
    LoRaParams,
    PathLossParams,
    PropagationModel,
    ReachabilityIndex,
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


def rebuilt_table(topology, sender, params=PARAMS, seed=3, attenuations=()):
    """The table a freshly bound grid index builds for the same world."""
    index = GridReachabilityIndex()
    _, link, _ = bound_index(index, topology.positions, seed=seed)
    for a, b, extra_db in attenuations:
        link.set_link_attenuation(a, b, extra_db)
    return dict(index.link_table(sender, params))


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
        table = index.link_table(1, PARAMS)
        assert list(table) == [2, 3]
        assert index.link_table(1, PARAMS) is table
        stats = index.stats()
        assert stats["rebuilds"] == 1
        assert stats["hits"] == 1

    def test_stale_table_is_rebuilt_not_patched(self):
        index = BruteForceReachability()
        topology, _, _ = bound_index(index, {1: (0.0, 0.0), 2: (100.0, 0.0), 3: (200.0, 0.0)})
        index.link_table(1, PARAMS)
        topology.move(3, (300.0, 0.0))
        index.link_table(1, PARAMS)
        assert index.stats()["rebuilds"] == 2
        assert index.stats()["patches"] == 0

    def test_unbound_index_raises(self):
        with pytest.raises(ConfigurationError):
            BruteForceReachability().link_table(1, PARAMS)

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
        assert list(index.link_table(1, PARAMS)) == [2]

    def test_move_invalidates_candidates(self):
        index = GridReachabilityIndex()
        topology, _, _ = bound_index(
            index, {1: (0.0, 0.0), 2: (20.0, 0.0), 3: (50_000.0, 0.0)}
        )
        assert 3 not in index.link_table(1, PARAMS)
        topology.move(3, (25.0, 0.0))
        assert 3 in index.link_table(1, PARAMS)
        topology.move(3, (50_000.0, 0.0))
        assert 3 not in index.link_table(1, PARAMS)

    def test_attenuation_change_invalidates(self):
        index = GridReachabilityIndex()
        _, link, _ = bound_index(index, {1: (0.0, 0.0), 2: (20.0, 0.0)})
        assert 2 in index.link_table(1, PARAMS)
        # Enough injected loss to push a 20 m link below CAD detection.
        link.set_link_attenuation(1, 2, 200.0)
        assert 2 not in index.link_table(1, PARAMS)

    def test_candidate_cache_is_per_sender_and_params(self):
        index = GridReachabilityIndex()
        bound_index(index, {1: (0.0, 0.0), 2: (20.0, 0.0), 3: (40.0, 0.0)})
        index.link_table(1, PARAMS)
        index.link_table(2, PARAMS)
        index.link_table(1, LoRaParams(spreading_factor=12))
        index.link_table(1, PARAMS)
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
        assert 2 not in index.link_table(1, LoRaParams(spreading_factor=7))
        assert 2 in index.link_table(1, LoRaParams(spreading_factor=12))

    def test_protocol_conformance(self):
        assert isinstance(GridReachabilityIndex(), ReachabilityIndex)
        assert isinstance(BruteForceReachability(), ReachabilityIndex)
        assert isinstance(
            LinkModel(PathLossParams(), random.Random(1)), PropagationModel
        )


class TestLinkTablePatching:
    """A change drops no table: the next lookup re-evaluates only the
    entries of the nodes that changed, unless the sender itself did."""

    WORLD = {1: (0.0, 0.0), 2: (50_000.0, 0.0), 3: (20.0, 0.0), 4: (40.0, 0.0)}

    def test_non_sender_move_patches_a_copy(self):
        index = GridReachabilityIndex()
        topology, _, _ = bound_index(index, self.WORLD)
        before = index.link_table(1, PARAMS)
        kept = list(before.items())
        stats = index.stats()
        topology.move(4, (30.0, 0.0))
        after = index.link_table(1, PARAMS)
        assert index.stats()["patches"] == stats["patches"] + 1
        assert index.stats()["rebuilds"] == stats["rebuilds"]
        assert after is not before
        assert list(before.items()) == kept
        assert after[4] > before[4]  # 10 m closer, same shadowing draw
        assert list(after.items()) == list(rebuilt_table(topology, 1).items())

    def test_sender_move_rebuilds(self):
        index = GridReachabilityIndex()
        topology, _, _ = bound_index(index, self.WORLD)
        index.link_table(1, PARAMS)
        stats = index.stats()
        topology.move(1, (10.0, 0.0))
        table = index.link_table(1, PARAMS)
        assert index.stats()["rebuilds"] == stats["rebuilds"] + 1
        assert index.stats()["patches"] == stats["patches"]
        assert list(table.items()) == list(rebuilt_table(topology, 1).items())

    def test_insert_restores_node_order(self):
        index = GridReachabilityIndex()
        topology, _, _ = bound_index(index, self.WORLD)
        assert list(index.link_table(1, PARAMS)) == [3, 4]
        topology.move(2, (30.0, 0.0))
        assert list(index.link_table(1, PARAMS)) == [2, 3, 4]
        assert index.stats()["patches"] == 1

    def test_far_move_costs_no_budget_evaluation(self):
        """A moved node whose cell misses the prefilter circle is dropped
        without a link-budget evaluation, as a rebuild would skip it.  At
        SF7 the prefilter radius is about 609 m here and a cell is half
        of it, so (750, 750) lies in a corner cell of the circle's
        bounding box, outside the circle."""
        index = GridReachabilityIndex()
        topology, _, budget = bound_index(index, self.WORLD)
        index.link_table(1, PARAMS)
        evaluations = budget.hits + budget.misses
        topology.move(2, (750.0, 750.0))
        topology.move(4, (70_000.0, 0.0))
        assert list(index.link_table(1, PARAMS)) == [3]
        assert index.stats()["patches"] == 1
        assert budget.hits + budget.misses == evaluations

    def test_sender_move_forgets_cell_verdicts(self):
        """The cell test's verdicts a table keeps hold for its sender's
        position; after the sender moves they are worked out again."""
        index = GridReachabilityIndex()
        topology, _, _ = bound_index(index, self.WORLD)
        index.link_table(1, PARAMS)
        topology.move(2, (750.0, 750.0))  # a cell outside the circle
        assert 2 not in index.link_table(1, PARAMS)
        topology.move(1, (700.0, 700.0))
        index.link_table(1, PARAMS)
        topology.move(2, (760.0, 760.0))  # same cell, now the sender's
        table = index.link_table(1, PARAMS)
        assert index.stats()["patches"] == 2
        assert 2 in table
        assert list(table.items()) == list(rebuilt_table(topology, 1).items())

    def test_attenuation_change_shows_in_both_endpoint_tables(self):
        index = GridReachabilityIndex()
        topology, link, _ = bound_index(index, self.WORLD)
        tables = {sender: index.link_table(sender, PARAMS) for sender in (1, 3, 4)}
        link.set_link_attenuation(1, 4, 10.0)
        assert index.link_table(1, PARAMS)[4] == pytest.approx(tables[1][4] - 10.0)
        assert index.link_table(4, PARAMS)[1] == pytest.approx(tables[4][1] - 10.0)
        # Both ends changed, so both rebuilt; node 3's table is patched.
        assert index.link_table(3, PARAMS) == tables[3]
        assert (index.stats()["rebuilds"], index.stats()["patches"]) == (5, 1)
        link.set_link_attenuation(1, 4, 200.0)
        assert 4 not in index.link_table(1, PARAMS)
        assert 1 not in index.link_table(4, PARAMS)
        attenuations = [(1, 4, 200.0)]
        for sender in (1, 3, 4):
            assert list(index.link_table(sender, PARAMS).items()) == list(
                rebuilt_table(topology, sender, attenuations=attenuations).items()
            )

    def test_invalidate_without_node_drops_every_table(self):
        index = GridReachabilityIndex()
        bound_index(index, self.WORLD)
        for sender in (1, 3):
            index.link_table(sender, PARAMS)
        index.invalidate(4)
        index.link_table(1, PARAMS)
        assert (index.stats()["rebuilds"], index.stats()["patches"]) == (2, 1)
        index.invalidate()
        for sender in (1, 3):
            index.link_table(sender, PARAMS)
        assert index.stats() == {"hits": 0, "patches": 1, "rebuilds": 4, "epoch": 2}

    def test_patch_without_prefilter_checks_every_changed_node(self):
        """A link model with no log-distance mean gets no geometric
        prefilter: a patch, like ``_compute``, puts every changed node
        through the budget check."""

        class NoMeanModel(LinkModel):
            params = None

        def bound(positions):
            topology = Topology(positions=dict(positions))
            link = NoMeanModel(PathLossParams(), random.Random(3))
            budget = LinkBudgetCache(topology, link)
            index = GridReachabilityIndex()
            index.bind(topology, link, budget, 3.0)
            return topology, index, budget

        topology, index, budget = bound(self.WORLD)
        index.link_table(1, PARAMS)
        evaluations = budget.hits + budget.misses
        topology.move(2, (30.0, 0.0))
        topology.move(4, (70_000.0, 0.0))
        table = index.link_table(1, PARAMS)
        assert index.stats()["patches"] == 1
        assert budget.hits + budget.misses == evaluations + 2
        assert list(table) == [2, 3]
        _, fresh, _ = bound(topology.positions)
        assert list(table.items()) == list(fresh.link_table(1, PARAMS).items())
