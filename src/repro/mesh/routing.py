"""Distance-vector routing (the protocol family LoRaMesher implements).

Each node periodically broadcasts its route vector — the set of
(destination, hop-metric) pairs it can reach.  A receiver adopts a route
through the broadcasting neighbor when it is strictly better, refreshes an
existing route through that neighbor, and treats metrics at or above
``infinity_metric`` as poison (split horizon with poisoned reverse is
applied when building the advertised vector).

The table itself is transport-agnostic: the :class:`MeshNode` feeds it
received vectors and asks it for next hops; tests drive it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.mesh.packet import RoutePayload, RouteVectorEntry


@dataclass
class RouteEntry:
    """One entry in the route table."""

    __slots__ = ("dst", "next_hop", "metric", "updated_at")

    dst: int
    next_hop: int
    metric: int
    updated_at: float


class RouteTable:
    """Distance-vector route table for one node."""

    def __init__(
        self,
        own_address: int,
        infinity_metric: int,
        route_timeout_s: float,
        poison_hold_s: float = 600.0,
    ) -> None:
        self._own = own_address
        self._infinity = infinity_metric
        self._timeout_s = route_timeout_s
        # Destinations we recently lost, advertised at infinity for
        # ``poison_hold_s`` so neighbours flush them instead of re-offering
        # stale routes (standard route poisoning against count-to-infinity).
        self._poison_hold_s = poison_hold_s
        self._poisoned: Dict[int, float] = {}
        self._routes: Dict[int, RouteEntry] = {}

    @property
    def own_address(self) -> int:
        return self._own

    def next_hop(self, dst: int) -> Optional[int]:
        """Next hop towards ``dst``, or ``None`` when unknown/unreachable."""
        entry = self._routes.get(dst)
        if entry is None or entry.metric >= self._infinity:
            return None
        return entry.next_hop

    def metric(self, dst: int) -> Optional[int]:
        """Hop metric towards ``dst``, or ``None`` when unknown."""
        entry = self._routes.get(dst)
        if entry is None or entry.metric >= self._infinity:
            return None
        return entry.metric

    def entries(self) -> List[RouteEntry]:
        """Live route entries, sorted by destination."""
        return [self._routes[dst] for dst in sorted(self._routes)]

    def observe_neighbor(self, neighbor: int, now: float) -> bool:
        """Install/refresh the 1-hop route created by hearing ``neighbor``.

        Returns:
            True when the table changed.
        """
        # Hearing a node directly is conclusive proof of life.
        self._poisoned.pop(neighbor, None)
        existing = self._routes.get(neighbor)
        if existing is None or existing.metric > 1:
            self._routes[neighbor] = RouteEntry(neighbor, neighbor, 1, now)
            return True
        if existing.metric == 1:
            existing.updated_at = now
        return False

    def apply_vector(self, sender: int, payload: RoutePayload, now: float) -> bool:
        """Merge a neighbor's advertised route vector.

        Standard Bellman-Ford update with poison handling:

        * candidate metric = advertised + 1 (capped at infinity),
        * adopt when strictly better than the current route,
        * always accept updates from the *current* next hop (including
          worsening ones — that is how poison propagates),
        * never install a route to ourselves.

        Returns:
            True when any entry changed (triggers an early re-advertise).
        """
        self._prune_poison(now)
        changed = self.observe_neighbor(sender, now)
        for advertised in payload.entries:
            if advertised.dst == self._own:
                continue
            candidate = min(advertised.metric + 1, self._infinity)
            current = self._routes.get(advertised.dst)
            if current is None:
                if candidate < self._infinity:
                    self._routes[advertised.dst] = RouteEntry(
                        advertised.dst, sender, candidate, now
                    )
                    # Adopting a live route supersedes any pending poison;
                    # if the route is in fact dead, the new next hop's own
                    # poison will kill it again within a triggered round.
                    self._poisoned.pop(advertised.dst, None)
                    changed = True
                continue
            if current.next_hop == sender:
                if current.metric != candidate:
                    current.metric = candidate
                    changed = True
                current.updated_at = now
                if candidate >= self._infinity:
                    # Poisoned by our next hop: drop and propagate the poison.
                    del self._routes[advertised.dst]
                    self._poisoned[advertised.dst] = now
            elif candidate < current.metric:
                current.next_hop = sender
                current.metric = candidate
                current.updated_at = now
                changed = True
        return changed

    @property
    def poisoned_count(self) -> int:
        """Destinations currently held in poison/holddown state."""
        return len(self._poisoned)

    def _prune_poison(self, now: float) -> None:
        stale = [
            dst for dst, since in self._poisoned.items()
            if now - since > self._poison_hold_s
        ]
        for dst in stale:
            del self._poisoned[dst]

    def poison_via(self, neighbor: int, now: float) -> List[int]:
        """Invalidate every route using ``neighbor`` as next hop (it died).

        Returns:
            The destinations that became unreachable.
        """
        lost = [dst for dst, entry in self._routes.items() if entry.next_hop == neighbor]
        for dst in lost:
            del self._routes[dst]
            self._poisoned[dst] = now
        return lost

    def expire(self, now: float) -> List[int]:
        """Flush routes not refreshed within the timeout.

        Staleness usually means lost refresh broadcasts rather than a dead
        destination, so expired routes are *not* poison-advertised — the
        next periodic advertisement simply re-installs them.

        Returns:
            The destinations that were flushed.
        """
        stale = [
            dst
            for dst, entry in self._routes.items()
            if now - entry.updated_at > self._timeout_s
        ]
        for dst in stale:
            del self._routes[dst]
        return stale

    def advertised_vector(self, to_neighbor: Optional[int] = None) -> RoutePayload:
        """Build the vector to broadcast.

        Includes the node itself at metric 0.  With ``to_neighbor`` set,
        split horizon with poisoned reverse is applied: routes whose next
        hop *is* that neighbor are advertised at infinity.  Broadcast
        advertisements (``to_neighbor=None``) carry plain metrics — the
        standard compromise for broadcast media, where per-neighbor frames
        would multiply airtime.
        """
        entries = [RouteVectorEntry(self._own, 0)]
        for entry in self.entries():
            metric = entry.metric
            if to_neighbor is not None and entry.next_hop == to_neighbor:
                metric = self._infinity
            entries.append(RouteVectorEntry(entry.dst, metric))
        # Route poisoning: destinations we just lost are advertised at
        # infinity so neighbours drop them rather than re-offering them.
        for dst in sorted(self._poisoned):
            if dst not in self._routes:
                entries.append(RouteVectorEntry(dst, self._infinity))
        limit = RoutePayload.max_entries_per_frame()
        return RoutePayload(entries=entries[:limit])

    def reachable(self) -> List[int]:
        """Destinations with a live route, sorted."""
        return [entry.dst for entry in self.entries() if entry.metric < self._infinity]

    def __len__(self) -> int:
        return len(self._routes)
