"""Link-state routing: deterministic Dijkstra over a topology snapshot.

The fabric runs the classic link-state protocol in zero simulated
time: every node knows the full adjacency map (only *up* links are
advertised). When the topology version bumps, :class:`RoutingTables`
snapshots that map; a source's shortest-path tree is computed from the
snapshot the first time anything asks for a route from it, then kept
until the next bump. Convergence is therefore atomic — every answer
at version v comes from v's adjacency, never from live link state, so
there is never a window where two nodes forward on different topology
views. That is the property the chaos :class:`~repro.fabric.monitors.
RoutingInvariantMonitor` certifies from outside.

Determinism: neighbors are relaxed in sorted name order and the heap
orders equal distances by node name, so tie-breaks are a pure function
of the adjacency map. Loop-freedom follows from symmetric positive
weights: ``dist(next_hop(u, d), d) < dist(u, d)`` strictly decreases
along any forwarded path.
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = ["dijkstra", "RoutingTables"]

Adjacency = Dict[str, Dict[str, float]]


def dijkstra(adjacency: Adjacency, source: str
             ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Shortest distances and first hops from ``source``.

    Returns ``(dist, first_hop)``: ``dist[v]`` is the shortest-path
    cost to every reachable ``v``, ``first_hop[v]`` the neighbor of
    ``source`` that path leaves through. Unreachable nodes appear in
    neither map.
    """
    return _shortest_paths(_sorted_neighbors(adjacency), source)


def _sorted_neighbors(adjacency: Adjacency
                      ) -> Dict[str, List[Tuple[str, float]]]:
    """Each node's ``(neighbor, weight)`` pairs in neighbor-name order."""
    return {node: sorted(nbrs.items()) for node, nbrs in adjacency.items()}


def _shortest_paths(neighbors: Dict[str, List[Tuple[str, float]]],
                    source: str) -> Tuple[Dict[str, float], Dict[str, str]]:
    dist: Dict[str, float] = {source: 0.0}
    first_hop: Dict[str, str] = {}
    heap: List[Tuple[float, str]] = [(0.0, source)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nbr, weight in neighbors.get(node, ()):
            if weight <= 0:
                raise ValueError(
                    f"link weight must be positive: {node}->{nbr} = {weight}")
            nd = d + weight
            if nbr not in dist or nd < dist[nbr]:
                dist[nbr] = nd
                first_hop[nbr] = nbr if node == source else first_hop[node]
                heapq.heappush(heap, (nd, nbr))
    return dist, first_hop


#: The tree of a source outside the snapshot: it reaches nothing.
_NO_TREE: Tuple[Mapping[str, float], Mapping[str, str]] = (
    MappingProxyType({}), MappingProxyType({}))


class _Trees(dict):
    """``source -> (dist, first_hop)`` over one snapshot, filled on demand.

    A hit is one dict lookup; only a miss reaches :meth:`__missing__`,
    which runs the source's Dijkstra and keeps its tree.
    """

    __slots__ = ("neighbors",)

    def __init__(self, neighbors: Dict[str, List[Tuple[str, float]]]):
        super().__init__()
        self.neighbors = neighbors

    def __missing__(self, source: str):
        if source not in self.neighbors:
            return _NO_TREE
        tree = self[source] = _shortest_paths(self.neighbors, source)
        return tree


class RoutingTables:
    """Per-node next-hop/distance tables over the current adjacency."""

    def __init__(self):
        self.version = -1
        self.recomputes = 0
        self._trees = _Trees({})

    def recompute(self, adjacency: Adjacency, version: int) -> None:
        """Adopt ``adjacency`` as topology ``version``'s snapshot.

        Neighbor lists are sorted once here and the previous version's
        trees are dropped; each source's tree is computed on its first
        lookup. A non-positive weight raises here, with the error the
        first failing source's Dijkstra gives, and leaves the tables
        as they were.
        """
        neighbors = _sorted_neighbors(adjacency)
        if any(weight <= 0
               for nbrs in neighbors.values() for _, weight in nbrs):
            for node in sorted(neighbors):
                _shortest_paths(neighbors, node)
        self._trees = _Trees(neighbors)
        self.version = version
        self.recomputes += 1

    def next_hop(self, node: str, dst: str) -> Optional[str]:
        """The neighbor ``node`` forwards toward ``dst``; None if cut off."""
        if node == dst:
            return None
        return self._trees[node][1].get(dst)

    def distance(self, node: str, dst: str) -> Optional[float]:
        return self._trees[node][0].get(dst)

    def reachable(self, node: str, dst: str) -> bool:
        return node == dst or dst in self._trees[node][1]

    def path(self, src: str, dst: str) -> Optional[List[str]]:
        """The forwarding walk ``src -> ... -> dst``; None on partition."""
        node, walk = src, [src]
        limit = len(self._trees.neighbors) + 1
        while node != dst:
            node = self.next_hop(node, dst)
            if node is None or len(walk) > limit:
                return None
            walk.append(node)
        return walk

    def trees(self) -> Mapping[str, Tuple[Dict[str, float], Dict[str, str]]]:
        """The ``(dist, first_hop)`` trees computed so far at this version."""
        return self._trees

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._trees.neighbors))
