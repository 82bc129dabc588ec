"""Link-state routing: deterministic Dijkstra over the live topology.

The fabric runs the classic link-state protocol in zero simulated
time: every node knows the full adjacency map (only *up* links are
advertised), and :class:`RoutingTables` recomputes every node's
next-hop and distance tables the instant the topology version bumps.
Convergence is therefore atomic — there is never a window where two
nodes forward on different topology views, which is exactly the
property the chaos :class:`~repro.fabric.monitors.
RoutingInvariantMonitor` certifies from outside.

Determinism: neighbors are relaxed in sorted name order and the heap
orders equal distances by node name, so tie-breaks are a pure function
of the adjacency map. Loop-freedom follows from symmetric positive
weights: ``dist(next_hop(u, d), d) < dist(u, d)`` strictly decreases
along any forwarded path.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

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


class RoutingTables:
    """Per-node next-hop/distance tables over the current adjacency."""

    def __init__(self):
        self.version = -1
        self.recomputes = 0
        self._dist: Dict[str, Dict[str, float]] = {}
        self._next: Dict[str, Dict[str, str]] = {}

    def recompute(self, adjacency: Adjacency, version: int) -> None:
        """Rebuild every node's tables for topology ``version``.

        Neighbor lists are sorted once here and shared by every
        source's Dijkstra run.
        """
        neighbors = _sorted_neighbors(adjacency)
        dist: Dict[str, Dict[str, float]] = {}
        nxt: Dict[str, Dict[str, str]] = {}
        for node in sorted(adjacency):
            dist[node], nxt[node] = _shortest_paths(neighbors, node)
        self._dist, self._next = dist, nxt
        self.version = version
        self.recomputes += 1

    def next_hop(self, node: str, dst: str) -> Optional[str]:
        """The neighbor ``node`` forwards toward ``dst``; None if cut off."""
        if node == dst:
            return None
        return self._next.get(node, {}).get(dst)

    def distance(self, node: str, dst: str) -> Optional[float]:
        return self._dist.get(node, {}).get(dst)

    def reachable(self, node: str, dst: str) -> bool:
        return node == dst or dst in self._next.get(node, {})

    def path(self, src: str, dst: str) -> Optional[List[str]]:
        """The forwarding walk ``src -> ... -> dst``; None on partition."""
        node, walk = src, [src]
        limit = len(self._next) + 1
        while node != dst:
            node = self.next_hop(node, dst)
            if node is None or len(walk) > limit:
                return None
            walk.append(node)
        return walk

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(self._next)
