"""Eager routing tables, the reference for the on-demand ones.

:class:`repro.fabric.routing.RoutingTables` snapshots the adjacency at
each topology version and runs a source's Dijkstra on its first
lookup. This is the table it replaced: every source's tree is computed
inside ``recompute``. ``tests/fabric/test_lazy_routing.py`` requires
both to answer every lookup alike at every version.
"""

from typing import Dict, List, Optional, Tuple

from repro.fabric.routing import _shortest_paths, _sorted_neighbors


class EagerRoutingTables:
    """Per-node next-hop/distance tables, all built at recompute time."""

    def __init__(self):
        self.version = -1
        self.recomputes = 0
        self._dist: Dict[str, Dict[str, float]] = {}
        self._next: Dict[str, Dict[str, str]] = {}

    def recompute(self, adjacency, version: int) -> None:
        neighbors = _sorted_neighbors(adjacency)
        dist: Dict[str, Dict[str, float]] = {}
        nxt: Dict[str, Dict[str, str]] = {}
        for node in sorted(adjacency):
            dist[node], nxt[node] = _shortest_paths(neighbors, node)
        self._dist, self._next = dist, nxt
        self.version = version
        self.recomputes += 1

    def next_hop(self, node: str, dst: str) -> Optional[str]:
        if node == dst:
            return None
        return self._next.get(node, {}).get(dst)

    def distance(self, node: str, dst: str) -> Optional[float]:
        return self._dist.get(node, {}).get(dst)

    def reachable(self, node: str, dst: str) -> bool:
        return node == dst or dst in self._next.get(node, {})

    def path(self, src: str, dst: str) -> Optional[List[str]]:
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
