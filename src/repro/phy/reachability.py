"""Spatial reachability culling and link-budget caching for the channel.

The brute-force channel pays O(N) per frame: every transmission computes
RSSI at *every* node, polls every listener, and walks every node again at
frame end.  At 1000 nodes almost all of that work proves "this receiver is
hopelessly out of range" over and over.  This module provides the seam
that removes it:

* :class:`PropagationModel` — the typed protocol the channel requires of
  a link model (``repro.phy.link.LinkModel`` is the stock implementation);
* :class:`ReachabilityIndex` — the protocol for per-sender link tables;
* :class:`BruteForceReachability` — the reference oracle: every node is
  in every table, reproducing the classic exhaustive walk;
* :class:`GridReachabilityIndex` — buckets node positions into a uniform
  grid and prunes receivers whose *exact* link budget (geometry + static
  shadowing + injected attenuation) cannot reach the CAD-detection
  threshold even with maximal fast fading;
* :class:`LinkBudgetCache` — per-link static loss memo with per-node
  epoch invalidation, shared by both index flavours so the culled and
  exhaustive channels compute bit-identical RSSI values.

Each index serves a **link table** per ``(sender, params)``: its
candidate receivers in node order, each with its static RSSI (TX power
minus the cached static loss).  The table is what the channel walks at a
frame's end and what carrier sense reads, so a frame end adds only the
per-frame fading term to each entry.

Culling is *sound*, not approximate: the link model's derived shadowing
and fading draws are clamped to ±4σ (see :mod:`repro.phy.link`), so a
pruned receiver provably could not have detected the preamble, let alone
demodulated the frame.  The channel therefore produces the same trace
stream and the same delivery verdicts with either index — a property
pinned by ``tests/property/test_phy_equivalence.py``.

Invalidation: both index flavours and the budget cache subscribe to
:meth:`repro.sim.topology.Topology.subscribe` (mobility) and
:meth:`repro.phy.link.LinkModel.subscribe_changes` (fault-injected
attenuation).  A change drops no link table.  The index records the
changed nodes — the moved node, or both ends of a re-attenuated link —
and each table remembers the change epoch it is current at, so a lookup
knows which nodes changed since its table was built.  A changed sender
rebuilds its table; otherwise the grid re-evaluates only the changed
nodes' entries (a moved node can enter or leave *any* sender's table,
and its static RSSI changes in every table it is in) and the
brute-force oracle rebuilds.  The budget cache is invalidated per node,
so a 1000-node mesh with three mobile nodes does not recompute half a
million link budgets per step.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
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
    """Per-sender link tables behind the channel.

    ``link_table(sender, params)`` lists every node that could plausibly
    detect a frame sent by ``sender`` with ``params`` — a superset of
    actual receivers is allowed (the channel re-checks each entry
    exactly); missing a possible receiver is not.
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

    def link_table(self, sender: int, params: LoRaParams) -> Mapping[int, float]:
        """Candidate receivers other than ``sender``, in ascending node
        order, each mapped to its static RSSI under current geometry:
        ``params.tx_power_dbm - budget.loss_db(sender, node)``.  A
        returned mapping is never changed afterwards."""
        ...

    def invalidate(self, node: Optional[int] = None) -> None:
        """Record that ``node`` changed; with no node, drop every table."""
        ...

    def stats(self) -> Dict[str, int]:
        """Counters for benchmarks and tests (hits, patches, rebuilds,
        epoch)."""
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
    """Shared bind plumbing, change record and link-table cache of the two
    index flavours; a flavour supplies ``_compute`` and may supply
    ``_patch``."""

    def __init__(self) -> None:
        self._topology: Optional[Topology] = None
        self._link: Optional[PropagationModel] = None
        self._budget: Optional[LinkBudgetCache] = None
        self._cad_margin_db = 0.0
        self._epoch = 0
        self._hits = 0
        self._patches = 0
        self._rebuilds = 0
        #: (sender, params) -> (epoch the table is current at, table)
        self._tables: Dict[Tuple[int, LoRaParams], Tuple[int, Dict[int, float]]] = {}
        #: node -> epoch of its latest change, oldest change first.  A
        #: change re-inserts its node, so there is one entry per node.
        self._changed: Dict[int, int] = {}

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

    def _require_bound(self) -> Topology:
        if self._topology is None:
            raise ConfigurationError(
                f"{type(self).__name__} is not bound; pass it to Channel(...)"
            )
        return self._topology

    def link_table(self, sender: int, params: LoRaParams) -> Mapping[int, float]:
        key = (sender, params)
        cached = self._tables.get(key)
        table: Optional[Dict[int, float]] = None
        if cached is not None:
            built_at, table = cached
            if built_at == self._epoch:
                self._hits += 1
                return table
            changed = self._changed_since(built_at)
            # A changed sender changes every entry of its table.
            table = None if sender in changed else self._patch(sender, params, table, changed)
        if table is None:
            table = self._compute(sender, params)
            self._rebuilds += 1
        else:
            self._patches += 1
        self._tables[key] = (self._epoch, table)
        return table

    def _changed_since(self, epoch: int) -> List[int]:
        """The nodes changed after ``epoch``, latest change first."""
        changed: List[int] = []
        for node, changed_at in reversed(self._changed.items()):
            if changed_at <= epoch:
                break
            changed.append(node)
        return changed

    def _compute(self, sender: int, params: LoRaParams) -> Dict[int, float]:
        raise NotImplementedError  # pragma: no cover - every flavour overrides it

    def _patch(
        self,
        sender: int,
        params: LoRaParams,
        table: Dict[int, float],
        changed: Sequence[int],
    ) -> Optional[Dict[int, float]]:
        """``table`` (never mutated) brought up to date for the ``changed``
        nodes, none of which is ``sender``; None rebuilds it instead."""
        return None

    def invalidate(self, node: Optional[int] = None) -> None:
        self._epoch += 1
        if node is None:
            self._tables.clear()
            self._changed.clear()
        else:
            self._record(node)
        self._on_invalidate(node)

    def _record(self, node: int) -> None:
        # Re-insert, so the record stays in change order.
        self._changed.pop(node, None)
        self._changed[node] = self._epoch

    def _on_invalidate(self, node: Optional[int]) -> None:  # hook
        pass

    def _on_topology_change(self, node: int) -> None:
        self.invalidate(node)

    def _on_link_change(self, a: int, b: int) -> None:
        # Attenuation changed on one link: either endpoint's table may
        # gain or lose the other, or change its static RSSI.
        self._epoch += 1
        self._record(a)
        self._record(b)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self._hits,
            "patches": self._patches,
            "rebuilds": self._rebuilds,
            "epoch": self._epoch,
        }


class BruteForceReachability(_BoundIndex):
    """The reference oracle: every node but the sender is in every table.

    Reproduces the exhaustive per-frame walk of the original channel;
    kept as the ground truth the spatial index is verified against (and
    as a safety hatch for exotic propagation models whose randomness is
    unbounded).  It patches nothing: a table is rebuilt after any change.
    """

    def _compute(self, sender: int, params: LoRaParams) -> Dict[int, float]:
        nodes = sorted(self._require_bound().positions)
        budget = self._budget
        assert budget is not None
        tx_power = params.tx_power_dbm
        return {
            node: tx_power - budget.loss_db(sender, node)
            for node in nodes
            if node != sender
        }


class GridReachabilityIndex(_BoundIndex):
    """Uniform-grid spatial index with exact link-budget culling.

    Two-stage candidate computation, cached as a link table per
    ``(sender, params)``:

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
    counted in the frame's ``phy.below_sensitivity`` event.

    A table whose sender has not changed since it was built is patched,
    not rebuilt: each changed node goes through the same two stages and
    its entry is updated, inserted (in node order) or dropped, so the
    patched table equals the one a rebuild would make.  The grid's cell
    edge is half the prefilter radius of the first modulation params
    seen.
    """

    def __init__(self) -> None:
        super().__init__()
        self._cell_m: Optional[float] = None
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        self._cell_of: Dict[int, Tuple[int, int]] = {}
        self._grid_built = False
        #: (sender, params) -> cell -> whether stage 1 keeps the cell's
        #: nodes.  A table is patched only while its sender stays put, so
        #: the verdicts hold until ``_compute`` rebuilds the table.
        self._near: Dict[Tuple[int, LoRaParams], Dict[Tuple[int, int], bool]] = {}

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

    def _grid_radius(self, params: LoRaParams) -> Optional[float]:
        """Distance beyond which even best-case draws cannot reach the
        CAD-detection threshold, or None for a link model without a
        log-distance mean (no geometric prefilter: every node goes to the
        budget check).  The first radius sizes the grid."""
        link = self._link
        assert link is not None
        pl_params = getattr(link, "params", None)
        if pl_params is None:
            return None
        threshold = sensitivity_dbm(params) - self._cad_margin_db
        headroom = link.shadowing_bound_db + link.fading_bound_db
        max_mean_loss = params.tx_power_dbm - threshold + headroom
        # Invert the log-distance mean loss.  path_loss_db clamps d to
        # >= 1 m, so a radius below 1 m still covers co-located nodes.
        if max_mean_loss <= pl_params.pl0_db:
            exceed = 0.0
        else:
            exceed = (max_mean_loss - pl_params.pl0_db) / (10.0 * pl_params.exponent)
        radius = max(pl_params.d0_m * (10.0 ** exceed), 1.0)
        if self._cell_m is None:
            # Auto cell size: half the prefilter radius keeps the visited
            # 3x3-ish neighbourhood tight without fragmenting dense
            # deployments into thousands of cells.
            self._cell_m = max(radius / 2.0, 1.0)
        self._ensure_grid()
        return radius

    def _compute(self, sender: int, params: LoRaParams) -> Dict[int, float]:
        self._near.pop((sender, params), None)
        topology = self._require_bound()
        radius = self._grid_radius(params)
        position = topology.positions.get(sender)
        if position is None:
            return {}
        if radius is None:
            members = list(topology.positions)
        else:
            members = self._members_near(position, radius)
        members.sort()
        return self._budget_check(sender, params, members)

    def _patch(
        self,
        sender: int,
        params: LoRaParams,
        table: Dict[int, float],
        changed: Sequence[int],
    ) -> Optional[Dict[int, float]]:
        positions = self._require_bound().positions
        position = positions.get(sender)
        if position is None:
            return table  # empty, as _compute leaves it
        radius = self._grid_radius(params)
        if radius is None:
            near = [node for node in changed if node in positions]
        else:
            x, y = position
            min_cx, max_cx, min_cy, max_cy = self._cell_bounds(x, y, radius)
            cell_of = self._cell_of
            verdicts = self._near.setdefault((sender, params), {})
            near = []
            for node in changed:
                # Stage 1 as _members_near applies it: the node's cell lies
                # under the circle's bounding box (most far cells fail
                # this cheap test) and meets the circle (kept per cell).
                index = cell_of.get(node)
                if index is None or not (
                    min_cx <= index[0] <= max_cx and min_cy <= index[1] <= max_cy
                ):
                    continue
                keep = verdicts.get(index)
                if keep is None:
                    keep = verdicts[index] = self._cell_intersects(index, x, y, radius)
                if keep:
                    near.append(node)
        fresh = self._budget_check(sender, params, near)
        patched = dict(table)
        inserted = False
        for node in changed:
            static_rssi = fresh.get(node)
            if static_rssi is None:
                patched.pop(node, None)
            else:
                inserted = inserted or node not in patched
                patched[node] = static_rssi
        if inserted:
            # A table lists its nodes in ascending order, as _compute does.
            patched = {node: patched[node] for node in sorted(patched)}
        return patched

    def _budget_check(
        self, sender: int, params: LoRaParams, nodes: Sequence[int]
    ) -> Dict[int, float]:
        """Stage 2: each of ``nodes`` but the sender whose static RSSI,
        with the fading bound as headroom, reaches the CAD-detection
        threshold, mapped to that static RSSI in the order given."""
        link = self._link
        budget = self._budget
        assert link is not None and budget is not None
        threshold = sensitivity_dbm(params) - self._cad_margin_db
        fade_headroom = link.fading_bound_db
        tx_power = params.tx_power_dbm
        table: Dict[int, float] = {}
        for node in nodes:
            if node == sender:
                continue
            static_rssi = tx_power - budget.loss_db(sender, node)
            if static_rssi + fade_headroom >= threshold:
                table[node] = static_rssi
        return table

    def _cell_bounds(self, x: float, y: float, radius: float) -> Tuple[int, int, int, int]:
        """Cell index ranges (x low, x high, y low, y high) under the
        bounding box of the prefilter circle around ``(x, y)``."""
        cell = self._cell_m
        assert cell is not None
        return (
            math.floor((x - radius) / cell),
            math.floor((x + radius) / cell),
            math.floor((y - radius) / cell),
            math.floor((y + radius) / cell),
        )

    def _members_near(self, position: Tuple[float, float], radius: float) -> List[int]:
        """Stage 1: the nodes of the cells under the bounding box of the
        prefilter circle around ``position`` that meet the circle."""
        x, y = position
        min_cx, max_cx, min_cy, max_cy = self._cell_bounds(x, y, radius)
        bbox_cells = (max_cx - min_cx + 1) * (max_cy - min_cy + 1)
        members: List[int] = []
        if bbox_cells > len(self._cells):
            # Sparse occupancy (clustered/line deployments): walking the
            # populated cells beats scanning an enormous bounding box.
            for index, nodes in self._cells.items():
                if (
                    min_cx <= index[0] <= max_cx
                    and min_cy <= index[1] <= max_cy
                    and self._cell_intersects(index, x, y, radius)
                ):
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
