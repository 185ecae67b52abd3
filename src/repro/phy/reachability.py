"""Spatial reachability culling and link-budget caching for the channel.

The brute-force channel pays O(N) per frame: every transmission computes
RSSI at *every* node, polls every listener, and walks every node again at
frame end.  At 1000 nodes almost all of that work proves "this receiver is
hopelessly out of range" over and over.  This module provides the seam
that removes it:

* :class:`PropagationModel` — the typed protocol the channel requires of
  a link model (``repro.phy.link.LinkModel`` is the stock implementation);
* :class:`ReachabilityIndex` — the protocol for per-sender candidate
  receiver computation;
* :class:`BruteForceReachability` — the reference oracle: candidates are
  simply *all* nodes, reproducing the classic exhaustive walk;
* :class:`GridReachabilityIndex` — buckets node positions into a uniform
  grid and prunes receivers whose *exact* link budget (geometry + static
  shadowing + injected attenuation) cannot reach the CAD-detection
  threshold even with maximal fast fading;
* :class:`LinkBudgetCache` — per-link static loss memo with per-node
  epoch invalidation, shared by both index flavours so the culled and
  exhaustive channels compute bit-identical RSSI values.

Culling is *sound*, not approximate: the link model's derived shadowing
and fading draws are clamped to ±4σ (see :mod:`repro.phy.link`), so a
pruned receiver provably could not have detected the preamble, let alone
demodulated the frame.  The channel therefore produces the same trace
stream and the same delivery verdicts with either index — a property
pinned by ``tests/property/test_phy_equivalence.py``.

Invalidation: both index flavours and the budget cache subscribe to
:meth:`repro.sim.topology.Topology.subscribe` (mobility) and
:meth:`repro.phy.link.LinkModel.subscribe_changes` (fault-injected
attenuation).  Candidate sets are invalidated coarsely (one epoch bump
covers every sender — a moved node can enter or leave *any* sender's
set); the budget cache is invalidated per node, so a 1000-node mesh with
three mobile nodes does not recompute half a million link budgets per
step.
"""

from __future__ import annotations

import math
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.errors import ConfigurationError
from repro.phy.link import sensitivity_dbm
from repro.phy.params import LoRaParams
from repro.sim.topology import Topology


@runtime_checkable
class PropagationModel(Protocol):
    """What the channel (and the reachability indexes) require of a
    propagation / link-budget model.

    ``repro.phy.link.LinkModel`` is the stock implementation; alternative
    models (ray-traced, measurement-replay, ...) plug in here as long as
    the randomness they add per link is bounded by the two ``*_bound_db``
    properties — that bound is what makes index culling sound.
    """

    @property
    def shadowing_bound_db(self) -> float:
        """Largest magnitude the static per-link term can take."""
        ...

    @property
    def fading_bound_db(self) -> float:
        """Largest magnitude the per-frame term can take."""
        ...

    def path_loss_db(
        self, distance_m: float, a: Optional[int] = None, b: Optional[int] = None
    ) -> float:
        """Total static loss (geometry + per-link terms) in dB."""
        ...

    def fading_db(self, a: int, b: int, fading_key: int) -> float:
        """Per-frame fading term, deterministic in ``(link, fading_key)``."""
        ...

    def snr_db(self, rssi_dbm: float, bandwidth_hz: int) -> float:
        """SNR implied by an RSSI at the given bandwidth."""
        ...

    def is_receivable(self, rssi_dbm: float, params: LoRaParams) -> bool:
        """Whether a lone frame at ``rssi_dbm`` can be demodulated."""
        ...

    def subscribe_changes(self, listener: object) -> None:
        """Register for per-link attenuation-change notifications."""
        ...


@runtime_checkable
class ReachabilityIndex(Protocol):
    """Per-sender candidate-receiver computation behind the channel.

    ``candidates(sender, params)`` returns every node that could
    plausibly detect a frame sent by ``sender`` with ``params`` — a
    superset of actual receivers is allowed (the channel re-checks each
    candidate exactly); missing a possible receiver is not.
    """

    def bind(
        self,
        topology: Topology,
        link_model: PropagationModel,
        budget: "LinkBudgetCache",
        cad_margin_db: float,
    ) -> None:
        """Attach the index to one channel's world (called once)."""
        ...

    def candidates(self, sender: int, params: LoRaParams) -> AbstractSet[int]:
        """Nodes that might detect a frame from ``sender`` (may include
        the sender itself; the channel skips it)."""
        ...

    def invalidate(self, node: Optional[int] = None) -> None:
        """Drop cached candidate sets (``node`` hints what moved)."""
        ...

    def stats(self) -> Dict[str, int]:
        """Counters for benchmarks and tests (hits, rebuilds, epoch)."""
        ...


class LinkBudgetCache:
    """Static per-link loss memo with per-node epoch invalidation.

    ``loss_db(a, b)`` is exactly ``link.path_loss_db(distance(a, b), a, b)``
    — same call, same floats — it just avoids recomputing the ``log10``
    and shadowing lookup per frame.  A node's moves bump its epoch (O(1));
    entries touching it lazily recompute on next use.  An injected
    attenuation change drops the single affected entry.
    """

    def __init__(self, topology: Topology, link_model: PropagationModel) -> None:
        self._topology = topology
        self._link = link_model
        self._node_epoch: Dict[int, int] = {}
        #: link key -> (epoch_a, epoch_b, loss_db)
        self._entries: Dict[Tuple[int, int], Tuple[int, int, float]] = {}
        self.hits = 0
        self.misses = 0
        topology.subscribe(self._on_topology_change)
        link_model.subscribe_changes(self._on_link_change)

    def loss_db(self, a: int, b: int) -> float:
        """Static loss on the (a, b) link, from cache when current."""
        key = (a, b) if a <= b else (b, a)
        epoch_a = self._node_epoch.get(key[0], 0)
        epoch_b = self._node_epoch.get(key[1], 0)
        entry = self._entries.get(key)
        if entry is not None and entry[0] == epoch_a and entry[1] == epoch_b:
            self.hits += 1
            return entry[2]
        self.misses += 1
        loss = self._link.path_loss_db(self._topology.distance(a, b), a, b)
        self._entries[key] = (epoch_a, epoch_b, loss)
        return loss

    def _on_topology_change(self, node: int) -> None:
        self._node_epoch[node] = self._node_epoch.get(node, 0) + 1

    def _on_link_change(self, a: int, b: int) -> None:
        self._entries.pop((a, b) if a <= b else (b, a), None)


class _BoundIndex:
    """Shared bind/invalidate plumbing for the two index flavours."""

    def __init__(self) -> None:
        self._topology: Optional[Topology] = None
        self._link: Optional[PropagationModel] = None
        self._budget: Optional[LinkBudgetCache] = None
        self._cad_margin_db = 0.0
        self._epoch = 0
        self._hits = 0
        self._rebuilds = 0

    def bind(
        self,
        topology: Topology,
        link_model: PropagationModel,
        budget: LinkBudgetCache,
        cad_margin_db: float,
    ) -> None:
        if self._topology is not None:
            raise ConfigurationError(
                f"{type(self).__name__} is already bound to a channel; "
                "create one index per Channel"
            )
        self._topology = topology
        self._link = link_model
        self._budget = budget
        self._cad_margin_db = cad_margin_db
        topology.subscribe(self._on_topology_change)
        link_model.subscribe_changes(self._on_link_change)
        self._after_bind()

    def _after_bind(self) -> None:  # hook for subclasses
        pass

    def _require_bound(self) -> Topology:
        if self._topology is None:
            raise ConfigurationError(
                f"{type(self).__name__} is not bound; pass it to Channel(...)"
            )
        return self._topology

    def invalidate(self, node: Optional[int] = None) -> None:
        self._epoch += 1
        self._on_invalidate(node)

    def _on_invalidate(self, node: Optional[int]) -> None:  # hook
        pass

    def _on_topology_change(self, node: int) -> None:
        self.invalidate(node)

    def _on_link_change(self, a: int, b: int) -> None:
        # Attenuation changed on one link: either endpoint's candidate
        # sets may gain or lose the other, so epoch-bump everything.
        self._epoch += 1

    def stats(self) -> Dict[str, int]:
        return {"hits": self._hits, "rebuilds": self._rebuilds, "epoch": self._epoch}


class BruteForceReachability(_BoundIndex):
    """The reference oracle: every node is always a candidate.

    Reproduces the exhaustive per-frame walk of the original channel;
    kept as the ground truth the spatial index is verified against (and
    as a safety hatch for exotic propagation models whose randomness is
    unbounded).
    """

    def __init__(self) -> None:
        super().__init__()
        self._all: Optional[FrozenSet[int]] = None

    def candidates(self, sender: int, params: LoRaParams) -> AbstractSet[int]:
        all_nodes = self._all
        if all_nodes is None:
            self._rebuilds += 1
            all_nodes = frozenset(self._require_bound().positions)
            self._all = all_nodes
        else:
            self._hits += 1
        return all_nodes

    def _on_invalidate(self, node: Optional[int]) -> None:
        # A move keeps the node set; only a bulk invalidation drops it.
        if node is None:
            self._all = None


class GridReachabilityIndex(_BoundIndex):
    """Uniform-grid spatial index with exact link-budget culling.

    Two-stage candidate computation, cached per ``(sender, params)``:

    1. **Geometric prefilter** — only grid cells intersecting a circle of
       radius ``R`` around the sender are visited, where ``R`` is the
       distance at which the *mean* path loss alone exceeds the maximum
       budget even with the best-case ±4σ shadowing and fading draws.
    2. **Exact budget check** — each surviving node's cached static loss
       (true geometry, true shadowing draw, true injected attenuation) is
       compared against the CAD-detection threshold with only the
       per-frame fading bound as headroom.

    A candidate set is therefore a provable superset of every node that
    could detect the preamble; everything outside it would only ever have
    produced a ``phy.below_sensitivity`` event.

    Args:
        cell_m: grid cell edge in metres; ``None`` auto-sizes to half the
            prefilter radius of the first modulation params seen.
    """

    def __init__(self, cell_m: Optional[float] = None) -> None:
        super().__init__()
        if cell_m is not None and cell_m <= 0:
            raise ConfigurationError(f"cell_m must be > 0, got {cell_m}")
        self._cell_m = cell_m
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        self._cell_of: Dict[int, Tuple[int, int]] = {}
        self._grid_built = False
        self._cache: Dict[Tuple[int, LoRaParams], Tuple[int, FrozenSet[int]]] = {}

    # -- grid maintenance ---------------------------------------------------

    def _cell_index(self, position: Tuple[float, float]) -> Tuple[int, int]:
        cell = self._cell_m
        assert cell is not None
        return (math.floor(position[0] / cell), math.floor(position[1] / cell))

    def _ensure_grid(self) -> None:
        if self._grid_built or self._cell_m is None:
            return
        topology = self._require_bound()
        self._cells.clear()
        self._cell_of.clear()
        for node, position in topology.positions.items():
            index = self._cell_index(position)
            self._cells.setdefault(index, []).append(node)
            self._cell_of[node] = index
        self._grid_built = True

    def _on_invalidate(self, node: Optional[int]) -> None:
        self._cache.clear()
        if not self._grid_built:
            return
        if node is None:
            self._grid_built = False
            return
        topology = self._require_bound()
        old = self._cell_of[node]
        new = self._cell_index(topology.positions[node])
        if old == new:
            return
        self._cells[old].remove(node)
        self._cells.setdefault(new, []).append(node)
        self._cell_of[node] = new

    # -- candidate computation ----------------------------------------------

    def _prefilter_radius_m(self, params: LoRaParams) -> float:
        """Distance beyond which even best-case draws cannot reach the
        CAD-detection threshold."""
        link = self._link
        assert link is not None
        threshold = sensitivity_dbm(params) - self._cad_margin_db
        headroom = link.shadowing_bound_db + link.fading_bound_db
        max_mean_loss = params.tx_power_dbm - threshold + headroom
        # Invert the log-distance mean loss.  path_loss_db clamps d to
        # >= 1 m, so a radius below 1 m still covers co-located nodes.
        pl_params = getattr(link, "params", None)
        if pl_params is None:  # non-standard model: no geometric prefilter
            return float("inf")
        if max_mean_loss <= pl_params.pl0_db:
            exceed = 0.0
        else:
            exceed = (max_mean_loss - pl_params.pl0_db) / (10.0 * pl_params.exponent)
        return max(pl_params.d0_m * (10.0 ** exceed), 1.0)

    def candidates(self, sender: int, params: LoRaParams) -> AbstractSet[int]:
        key = (sender, params)
        cached = self._cache.get(key)
        if cached is not None and cached[0] == self._epoch:
            self._hits += 1
            return cached[1]
        result = self._compute(sender, params)
        self._cache[key] = (self._epoch, result)
        self._rebuilds += 1
        return result

    def _compute(self, sender: int, params: LoRaParams) -> FrozenSet[int]:
        topology = self._require_bound()
        link = self._link
        budget = self._budget
        assert link is not None and budget is not None
        radius = self._prefilter_radius_m(params)
        if self._cell_m is None:
            if not math.isfinite(radius):
                self._cell_m = None
            else:
                # Auto cell size: half the prefilter radius keeps the
                # visited 3x3-ish neighbourhood tight without fragmenting
                # dense deployments into thousands of cells.
                self._cell_m = max(radius / 2.0, 1.0)
        threshold = sensitivity_dbm(params) - self._cad_margin_db
        fade_headroom = link.fading_bound_db
        tx_power = params.tx_power_dbm
        keep: List[int] = []
        position = topology.positions.get(sender)
        if position is None:
            return frozenset()
        if self._cell_m is None or not math.isfinite(radius):
            members = list(topology.positions)
        else:
            self._ensure_grid()
            members = self._members_near(position, radius)
        for node in members:
            if node == sender:
                continue
            loss = budget.loss_db(sender, node)
            if tx_power - loss + fade_headroom >= threshold:
                keep.append(node)
        return frozenset(keep)

    def _members_near(self, position: Tuple[float, float], radius: float) -> List[int]:
        cell = self._cell_m
        assert cell is not None
        x, y = position
        min_cx = math.floor((x - radius) / cell)
        max_cx = math.floor((x + radius) / cell)
        min_cy = math.floor((y - radius) / cell)
        max_cy = math.floor((y + radius) / cell)
        bbox_cells = (max_cx - min_cx + 1) * (max_cy - min_cy + 1)
        members: List[int] = []
        if bbox_cells > len(self._cells):
            # Sparse occupancy (clustered/line deployments): walking the
            # populated cells beats scanning an enormous bounding box.
            for index, nodes in self._cells.items():
                if self._cell_intersects(index, x, y, radius):
                    members.extend(nodes)
            return members
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                nodes = self._cells.get((cx, cy))
                if nodes and self._cell_intersects((cx, cy), x, y, radius):
                    members.extend(nodes)
        return members

    def _cell_intersects(
        self, index: Tuple[int, int], x: float, y: float, radius: float
    ) -> bool:
        cell = self._cell_m
        assert cell is not None
        left = index[0] * cell
        bottom = index[1] * cell
        nearest_x = min(max(x, left), left + cell)
        nearest_y = min(max(y, bottom), bottom + cell)
        return math.hypot(x - nearest_x, y - nearest_y) <= radius
