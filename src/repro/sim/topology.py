"""Node placement generators and geometry helpers.

Placements produce 2-D coordinates in metres.  The generators mirror the
deployments a LoRa mesh monitoring paper would study: a regular grid (campus
rooftops), uniform random (ad-hoc sensor field), clustered (buildings), and a
line (road/river deployment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import RngRegistry


class Placement(str, Enum):
    """Supported node placement strategies."""

    GRID = "grid"
    UNIFORM = "uniform"
    CLUSTERED = "clustered"
    LINE = "line"


#: Callback fired with the address of the node that moved.
TopologyListener = Callable[[int], None]


@dataclass(frozen=True)
class Topology:
    """A set of node positions.

    Attributes:
        positions: read-only mapping from node address to (x, y) in metres.

    Positions may change over a run (mobility), but only through
    :meth:`move`; writing to :attr:`positions` raises ``TypeError``.
    Consumers that cache anything derived from geometry should
    :meth:`subscribe` for invalidation or compare :attr:`version`.
    """

    positions: Mapping[int, Tuple[float, float]]
    _positions: Dict[int, Tuple[float, float]] = field(
        init=False, repr=False, compare=False
    )
    _version: List[int] = field(
        default_factory=lambda: [0], repr=False, compare=False
    )
    _listeners: List[TopologyListener] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # A private copy that only move() writes; callers see it read-only.
        positions = dict(self.positions)
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "positions", MappingProxyType(positions))

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every position change."""
        return self._version[0]

    def subscribe(self, listener: TopologyListener) -> None:
        """Register a callback fired with the moved node's address after
        every :meth:`move`."""
        self._listeners.append(listener)

    def move(self, node: int, position: Tuple[float, float]) -> None:
        """Move ``node`` to ``position``, notifying geometry observers.

        Raises:
            ConfigurationError: if the node is not in the topology.
        """
        if node not in self._positions:
            raise ConfigurationError(f"node {node} is not in the topology")
        self._positions[node] = position
        self._version[0] += 1
        for listener in self._listeners:
            listener(node)

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance in metres between nodes ``a`` and ``b``."""
        ax, ay = self.positions[a]
        bx, by = self.positions[b]
        return math.hypot(ax - bx, ay - by)

    def nodes(self) -> List[int]:
        """Node addresses in ascending order."""
        return sorted(self.positions)

    def centroid(self) -> Tuple[float, float]:
        """Geometric centre of the deployment."""
        n = len(self.positions)
        if n == 0:
            raise ConfigurationError("topology has no nodes")
        sx = sum(x for x, _ in self.positions.values())
        sy = sum(y for _, y in self.positions.values())
        return (sx / n, sy / n)

    def nearest_to(self, point: Tuple[float, float]) -> int:
        """Address of the node closest to ``point``."""
        if not self.positions:
            raise ConfigurationError("topology has no nodes")
        px, py = point
        return min(
            self.positions,
            key=lambda addr: math.hypot(self.positions[addr][0] - px, self.positions[addr][1] - py),
        )


def make_topology(
    placement: Placement,
    n_nodes: int,
    area_m: float,
    rng: RngRegistry,
    first_address: int = 1,
    n_clusters: int = 4,
) -> Topology:
    """Generate a topology.

    Args:
        placement: placement strategy.
        n_nodes: number of nodes; must be >= 1.
        area_m: side length of the square deployment area in metres (for
            ``LINE`` this is the total line length).
        rng: registry providing the ``"topology"`` stream.
        first_address: address assigned to the first node; addresses are
            consecutive from there.
        n_clusters: cluster count for ``CLUSTERED`` placement.

    Returns:
        A :class:`Topology` with ``n_nodes`` positions.

    Raises:
        ConfigurationError: on invalid sizes.
    """
    if n_nodes < 1:
        raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
    if area_m <= 0:
        raise ConfigurationError(f"area_m must be > 0, got {area_m}")
    stream = rng.stream("topology")
    addresses = list(range(first_address, first_address + n_nodes))
    positions: Dict[int, Tuple[float, float]] = {}

    if placement is Placement.GRID:
        side = math.ceil(math.sqrt(n_nodes))
        # Place nodes on a side x side lattice with a small jitter so that no
        # two links have exactly identical geometry (ties would make capture
        # outcomes knife-edge).
        spacing = area_m / max(side - 1, 1)
        for index, addr in enumerate(addresses):
            row, col = divmod(index, side)
            jitter_x = stream.uniform(-spacing * 0.05, spacing * 0.05)
            jitter_y = stream.uniform(-spacing * 0.05, spacing * 0.05)
            positions[addr] = (col * spacing + jitter_x, row * spacing + jitter_y)
    elif placement is Placement.UNIFORM:
        for addr in addresses:
            positions[addr] = (stream.uniform(0, area_m), stream.uniform(0, area_m))
    elif placement is Placement.CLUSTERED:
        if n_clusters < 1:
            raise ConfigurationError(f"n_clusters must be >= 1, got {n_clusters}")
        centers = [
            (stream.uniform(0.2 * area_m, 0.8 * area_m), stream.uniform(0.2 * area_m, 0.8 * area_m))
            for _ in range(n_clusters)
        ]
        sigma = area_m / (4.0 * n_clusters)
        for addr in addresses:
            cx, cy = centers[stream.randrange(n_clusters)]
            positions[addr] = (stream.gauss(cx, sigma), stream.gauss(cy, sigma))
    elif placement is Placement.LINE:
        spacing = area_m / max(n_nodes - 1, 1)
        for index, addr in enumerate(addresses):
            jitter = stream.uniform(-spacing * 0.05, spacing * 0.05)
            positions[addr] = (index * spacing + jitter, 0.0)
    else:  # pragma: no cover - enum is exhaustive
        raise ConfigurationError(f"unknown placement {placement!r}")

    return Topology(positions=positions)
