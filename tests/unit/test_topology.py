"""Unit tests for topology generation."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RngRegistry
from repro.sim.topology import Placement, Topology, make_topology


@pytest.fixture
def registry():
    return RngRegistry(seed=99)


class TestMakeTopology:
    @pytest.mark.parametrize("placement", list(Placement))
    def test_produces_requested_node_count(self, registry, placement):
        topo = make_topology(placement, 12, 500.0, registry)
        assert topo.size == 12
        assert topo.nodes() == list(range(1, 13))

    def test_grid_is_roughly_regular(self, registry):
        topo = make_topology(Placement.GRID, 9, 300.0, registry)
        # Corner-to-corner distance should be near the diagonal.
        diagonal = topo.distance(1, 9)
        assert 300 <= diagonal <= 300 * math.sqrt(2) * 1.2

    def test_line_is_one_dimensional(self, registry):
        topo = make_topology(Placement.LINE, 5, 400.0, registry)
        ys = [y for _, y in topo.positions.values()]
        assert all(y == 0.0 for y in ys)

    def test_uniform_within_area(self, registry):
        topo = make_topology(Placement.UNIFORM, 50, 1000.0, registry)
        for x, y in topo.positions.values():
            assert 0 <= x <= 1000 and 0 <= y <= 1000

    def test_first_address_offset(self, registry):
        topo = make_topology(Placement.GRID, 4, 100.0, registry, first_address=10)
        assert topo.nodes() == [10, 11, 12, 13]

    def test_deterministic_for_seed(self):
        a = make_topology(Placement.UNIFORM, 10, 500.0, RngRegistry(seed=5))
        b = make_topology(Placement.UNIFORM, 10, 500.0, RngRegistry(seed=5))
        assert a.positions == b.positions

    def test_zero_nodes_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            make_topology(Placement.GRID, 0, 100.0, registry)

    def test_negative_area_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            make_topology(Placement.GRID, 4, -1.0, registry)

    def test_single_node(self, registry):
        topo = make_topology(Placement.GRID, 1, 100.0, registry)
        assert topo.size == 1


class TestTopologyGeometry:
    def test_distance_is_symmetric(self, registry):
        topo = make_topology(Placement.UNIFORM, 8, 500.0, registry)
        for a in topo.nodes():
            for b in topo.nodes():
                if a != b:
                    assert topo.distance(a, b) == pytest.approx(topo.distance(b, a))

    def test_centroid_of_known_square(self):
        topo = Topology(positions={1: (0.0, 0.0), 2: (10.0, 0.0), 3: (0.0, 10.0), 4: (10.0, 10.0)})
        assert topo.centroid() == (5.0, 5.0)

    def test_nearest_to(self):
        topo = Topology(positions={1: (0.0, 0.0), 2: (100.0, 0.0)})
        assert topo.nearest_to((10.0, 0.0)) == 1
        assert topo.nearest_to((90.0, 0.0)) == 2

    def test_centroid_empty_raises(self):
        with pytest.raises(ConfigurationError):
            Topology(positions={}).centroid()


class TestTopologyMutation:
    def test_direct_position_write_raises(self):
        topo = Topology(positions={1: (0.0, 0.0), 2: (100.0, 0.0)})
        with pytest.raises(TypeError):
            topo.positions[2] = (5000.0, 0.0)
        assert topo.positions[2] == (100.0, 0.0)
        assert topo.version == 0
        topo.move(2, (5000.0, 0.0))
        assert topo.positions[2] == (5000.0, 0.0)
        assert topo.version == 1
