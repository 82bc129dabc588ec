"""Chaos invariant monitors for the fabric (DESIGN.md §8 contract).

Both monitors are read-only observers implementing the
:class:`repro.chaos.monitors.InvariantMonitor` contract (``name``,
``observe``, ``at_end``) without importing it — :mod:`repro.backend.
fabric` pulls this package into the core server graph, and importing
:mod:`repro.chaos` from here would close an import cycle through
``chaos.runner`` -> ``core.server``. They install into any
:class:`~repro.chaos.monitors.MonitorSuite` unchanged:

* :class:`RoutingInvariantMonitor` certifies the routing tables at
  every sample: converged to the current topology version, loop-free,
  complete (every physically connected pair has a route), and
  *optimal* — the Bellman conditions ``dist(u,d) = w(u,next) +
  dist(next,d)`` and ``dist(u,d) <= w(u,v) + dist(v,d)`` over every up
  edge are a shortest-path proof that does not rerun Dijkstra. The
  proof runs once per routing state; other samples repeat its verdict.
* :class:`TransferConservationMonitor` checks no transfer is lost or
  duplicated: ``started == delivered + failed + in_flight`` at every
  instant, counters never rewind, and nothing is still in flight at
  the end of the run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

__all__ = ["RoutingInvariantMonitor", "TransferConservationMonitor"]

_EPS = 1e-12


def _components(adjacency: Dict[str, Dict[str, float]]) -> Dict[str, int]:
    """Connected-component id per node (union by BFS, deterministic)."""
    comp: Dict[str, int] = {}
    next_id = 0
    for start in sorted(adjacency):
        if start in comp:
            continue
        comp[start] = next_id
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nbr in sorted(adjacency[node]):
                if nbr not in comp:
                    comp[nbr] = next_id
                    frontier.append(nbr)
        next_id += 1
    return comp


class RoutingInvariantMonitor:
    """Routing tables converge, are loop-free, complete, and optimal.

    The certificate costs O(pairs x degree), so it runs once per
    routing state: a sample re-certifies only when the versions, the
    live up-link adjacency or the computed trees differ from what it
    last certified, and otherwise repeats that verdict. Comparing the
    trees catches an entry edited in place without a version bump;
    comparing the adjacency catches a link whose state changed without
    a recompute.
    """

    name = "fabric_routing"

    def __init__(self, network):
        self.network = network
        self._certified = None  # (versions, adjacency, trees) last checked
        self._verdict: List[str] = []

    def observe(self, sim) -> Iterable[str]:
        net = self.network
        tables = net.tables
        if tables.version != net.topology_version:
            # Stale tables fail the remaining checks trivially.
            return [f"tables at version {tables.version} but topology at "
                    f"{net.topology_version} (not converged)"]
        versions = (tables.version, net.topology_version)
        adjacency = net.adjacency()
        certified = self._certified
        if (certified is None or certified[0] != versions
                or certified[1] != adjacency
                or certified[2] != tables.trees()):
            self._verdict = self._certify(tables, adjacency)
            # The certificate looked up every pair, so every tree of
            # this version is computed; keep a copy to compare against.
            trees = {source: (dict(dist), dict(first_hop))
                     for source, (dist, first_hop) in tables.trees().items()}
            self._certified = (versions, adjacency, trees)
        return list(self._verdict)

    @staticmethod
    def _certify(tables, adjacency: Dict[str, Dict[str, float]]
                 ) -> List[str]:
        out = []
        comp = _components(adjacency)
        nodes = sorted(adjacency)
        for dst in nodes:
            for node in nodes:
                if node == dst:
                    continue
                connected = comp[node] == comp[dst]
                walk = tables.path(node, dst)
                if connected and walk is None:
                    out.append(f"{node} -> {dst}: connected but no route "
                               f"(forwarding loop or missing entry)")
                    continue
                if not connected:
                    if walk is not None:
                        out.append(f"{node} -> {dst}: route exists across "
                                   f"a partition")
                    continue
                # Bellman optimality certificate on this node's entry.
                nxt = tables.next_hop(node, dst)
                d_here = tables.distance(node, dst)
                d_next = 0.0 if nxt == dst else tables.distance(nxt, dst)
                if d_here is None or d_next is None:
                    out.append(f"{node} -> {dst}: next hop {nxt} has no "
                               f"distance entry")
                    continue
                w = adjacency[node].get(nxt)
                if w is None:
                    out.append(f"{node} -> {dst}: next hop {nxt} is not an "
                               f"up neighbor")
                    continue
                if abs(d_here - (w + d_next)) > _EPS:
                    out.append(
                        f"{node} -> {dst}: dist {d_here} != w({node},{nxt})"
                        f" + dist({nxt},{dst}) = {w + d_next}")
                for nbr, weight in adjacency[node].items():
                    d_nbr = (0.0 if nbr == dst
                             else tables.distance(nbr, dst))
                    if d_nbr is None:
                        continue
                    if d_here > weight + d_nbr + _EPS:
                        out.append(
                            f"{node} -> {dst}: dist {d_here} not optimal, "
                            f"via {nbr} costs {weight + d_nbr}")
        return out

    def at_end(self, sim) -> Iterable[str]:
        # Tables must have converged by quiescence; the per-sample
        # certificate already covers everything else.
        if self.network.tables.version != self.network.topology_version:
            return (f"tables at version {self.network.tables.version} but "
                    f"topology at {self.network.topology_version} at end "
                    f"of run",)
        return ()


class TransferConservationMonitor:
    """Every transfer is delivered or failed exactly once, never both."""

    name = "fabric_transfers"

    _MONOTONIC = ("started", "delivered", "failed", "degraded",
                  "reroutes", "bytes_delivered", "duplicates")

    def __init__(self, network):
        self.network = network
        self._last: Dict[str, float] = {}

    def observe(self, sim) -> Iterable[str]:
        out = []
        net = self.network
        snap = net.counters()
        for key in self._MONOTONIC:
            prev = self._last.get(key)
            if prev is not None and snap[key] < prev:
                out.append(f"counter {key} rewound {prev} -> {snap[key]}")
        self._last = snap
        if net.in_flight < 0:
            out.append(f"in_flight negative: {net.in_flight}")
        balance = (net.transfers_started - net.transfers_delivered
                   - net.transfers_failed - net.in_flight)
        if balance != 0:
            out.append(
                f"conservation broken: started={net.transfers_started} != "
                f"delivered={net.transfers_delivered} + "
                f"failed={net.transfers_failed} + in_flight={net.in_flight}")
        if net.duplicate_deliveries:
            out.append(
                f"{net.duplicate_deliveries} transfers delivered more than "
                f"once (exactly-once broken)")
        return out

    def at_end(self, sim) -> Iterable[str]:
        if self.network.in_flight:
            return (f"{self.network.in_flight} transfers still in flight "
                    f"at end of run",)
        return ()
