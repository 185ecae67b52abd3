"""Shared test fixtures and builders."""

from __future__ import annotations

import random

import pytest

from repro.mesh.config import MeshConfig
from repro.mesh.node import MeshNode
from repro.phy.channel import Channel
from repro.phy.link import LinkModel, PathLossParams
from repro.phy.params import LoRaParams
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.topology import Placement, make_topology
from repro.sim.trace import TraceLog


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def alert_evaluations(monkeypatch):
    """Count alert evaluation from here on: every ``AlertEngine`` built and
    every ``conditions`` or ``node_conditions`` call of an alert rule.

    Returns the list the counters append to, one label per event.
    """
    from repro.monitor.alerts import AlertEngine, AlertRule

    calls = []
    build = AlertEngine.__init__

    def counting_build(engine, *args, **kwargs):
        calls.append("AlertEngine")
        build(engine, *args, **kwargs)

    monkeypatch.setattr(AlertEngine, "__init__", counting_build)
    for rule in (AlertRule, *AlertRule.__subclasses__()):
        for name in ("conditions", "node_conditions"):
            method = vars(rule).get(name)
            if method is None:
                continue
            label = f"{rule.__name__}.{name}"

            def counting(*args, method=method, label=label, **kwargs):
                calls.append(label)
                return method(*args, **kwargs)

            monkeypatch.setattr(rule, name, counting)
    return calls


@pytest.fixture
def rng():
    return RngRegistry(seed=1234)


@pytest.fixture
def raw_rng():
    return random.Random(1234)


class WorldBuilder:
    """Builds a small simulated world for tests: channel + nodes.

    Defaults: SF9 (more range margin than SF7), zero shadowing (links are
    deterministic from geometry), a fast-beaconing mesh config so tests
    converge within a minute of simulated time.
    """

    def __init__(self, seed: int = 1234) -> None:
        self.seed = seed
        self.rng = RngRegistry(seed=seed)
        self.sim = Simulator()
        self.trace = TraceLog(capacity=300_000)
        self.params = LoRaParams(spreading_factor=9)
        self.path_loss = PathLossParams(shadowing_sigma_db=0.0)
        self.mesh_config = MeshConfig(
            hello_interval_s=30.0,
            route_interval_s=45.0,
            neighbor_timeout_s=100.0,
            route_timeout_s=200.0,
            jitter_s=2.0,
        )
        self.link_model = None
        self.channel = None
        self.topology = None
        self.nodes = {}

    def build(self, n_nodes: int = 9, area_m: float = 250.0, placement: Placement = Placement.GRID, protocol: str = "dv"):
        self.link_model = LinkModel(self.path_loss, self.rng.stream("link"))
        self.topology = make_topology(placement, n_nodes, area_m, self.rng)
        self.channel = Channel(self.sim, self.topology, self.link_model, trace=self.trace)
        self.nodes = {
            address: MeshNode(
                self.sim,
                self.channel,
                address,
                config=self.mesh_config,
                params=self.params,
                rng=self.rng,
                protocol=protocol,
                trace=self.trace,
            )
            for address in self.topology.nodes()
        }
        return self


@pytest.fixture
def world():
    """A ready-to-build world builder (call ``world.build(...)``)."""
    return WorldBuilder()


@pytest.fixture
def small_mesh(world):
    """A converged 9-node DV grid mesh (warmed up for 120 s)."""
    world.build(n_nodes=9, area_m=250.0)
    world.sim.run(until=120.0)
    return world
