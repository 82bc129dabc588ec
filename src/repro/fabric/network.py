"""The live fabric: links, failures, and rerouted per-hop transfers.

:class:`FabricNetwork` instantiates a :class:`~repro.fabric.topology.
TopologySpec` as simulation objects: one :class:`FabricLink` per edge
of the Clos (each direction a serializing
:class:`~repro.sim.resources.Resource`, so congestion is localized to
the contended link), an adjacency map of *up* links, and
:class:`~repro.fabric.routing.RoutingTables` that snapshot that map on
every topology change (an attach patches the snapshot with its one new
link) and build each source's route tree on its first lookup.

Transfers forward hop by hop, consulting the routing tables at every
node — so a route recomputation mid-flight redirects the remaining
legs automatically. A leg that finds its link down (or loses it during
serialization) abandons the attempt; the transfer backs off with
seeded jitter and retries from the source, up to
``spec.max_retries`` times before raising
:class:`~repro.virtio.reliability.RetryExhausted` (a partition).
Degraded-path and partition outcomes are recorded against
:class:`~repro.faults.accounting.AvailabilityAccounting` when one is
attached; link down/up spans always are.

The network registers as a snapshot participant (``fabric:{name}``):
link state, routing version, and transfer counters round-trip
snapshot/restore, and the tables re-snapshot the adjacency on restore.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.fabric.addressing import IpAllocator
from repro.fabric.routing import RoutingTables
from repro.fabric.topology import TopologySpec
from repro.sim.resources import Resource
from repro.virtio.reliability import RetryExhausted

__all__ = ["FabricLink", "FabricNetwork", "link_name", "STORAGE_NODE"]

#: The storage cluster frontend's node name in every topology.
STORAGE_NODE = "storage"

BACKOFF_STREAM = "fabric.backoff"


def link_name(a: str, b: str) -> str:
    """Canonical link name: endpoints sorted, joined with ``|``."""
    lo, hi = sorted((a, b))
    return f"{lo}|{hi}"


class FabricLink:
    """One bidirectional edge: per-direction serializing ports."""

    def __init__(self, sim, a: str, b: str, gbps: float, latency_s: float):
        self.sim = sim
        self.a, self.b = sorted((a, b))
        self.name = f"{self.a}|{self.b}"
        self.gbps = gbps
        self.latency_s = latency_s
        self.up = True
        # Bumps on every up->down transition: a frame whose
        # serialization window contains *any* down transition is lost,
        # even if the link is back up by the end of the window.
        self.down_count = 0
        self._ports = {
            self.a: Resource(sim, capacity=1, label=f"{self.name}:{self.a}"),
            self.b: Resource(sim, capacity=1, label=f"{self.name}:{self.b}"),
        }
        self.bytes_carried = 0
        self.frames = 0
        self.drops = 0

    def fail(self) -> None:
        if self.up:
            self.up = False
            self.down_count += 1

    def restore(self) -> None:
        self.up = True

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise KeyError(f"{node!r} is not an endpoint of {self.name}")

    def serialization_time(self, nbytes: int) -> float:
        return nbytes * 8.0 / (self.gbps * 1e9)

    def traverse(self, sender: str, nbytes: int):
        """Process: serialize one leg; returns False if the link failed.

        The sender holds its direction's port for the serialization
        time (per-hop bandwidth sharing). A link that goes down while
        the frame is on the wire loses the frame: the traversal
        completes in wall time but reports failure, and the caller
        retransmits from the source.
        """
        port = self._ports[sender]
        if not port.try_acquire():
            req = port.request()
            try:
                yield req
            except BaseException:
                port.withdraw(req)
                raise
        epoch = self.down_count
        try:
            yield self.sim.timeout(self.serialization_time(nbytes))
        finally:
            port.release()
        if not self.up or self.down_count != epoch:
            self.drops += 1
            return False
        self.bytes_carried += nbytes
        self.frames += 1
        return True

    def counters(self) -> Dict[str, float]:
        return {"bytes_carried": float(self.bytes_carried),
                "frames": float(self.frames),
                "drops": float(self.drops)}

    def snapshot_state(self) -> dict:
        return {"up": self.up,
                "down_count": self.down_count,
                "bytes_carried": self.bytes_carried,
                "frames": self.frames,
                "drops": self.drops,
                "ports": {end: port.snapshot_state()
                          for end, port in self._ports.items()}}

    def restore_state(self, state: dict) -> None:
        self.up = state["up"]
        self.down_count = state["down_count"]
        self.bytes_carried = state["bytes_carried"]
        self.frames = state["frames"]
        self.drops = state["drops"]
        for end, port_state in state["ports"].items():
            self._ports[end].restore_state(port_state)


class FabricNetwork:
    """A two-tier Clos with link-state routing and failure hooks."""

    def __init__(self, sim, spec: TopologySpec, accounting=None,
                 name: str = "fabric"):
        if not spec.enabled:
            raise ValueError("FabricNetwork needs an enabled TopologySpec")
        self.sim = sim
        self.spec = spec
        self.name = name
        self.accounting = accounting
        self.ip = IpAllocator(spec.n_racks)
        self.tors = tuple(f"tor-{r}" for r in range(spec.n_racks))
        self.spines = tuple(f"spine-{s}" for s in range(spec.n_spines))
        self._links: Dict[str, FabricLink] = {}
        self._adjacent: Dict[str, Dict[str, FabricLink]] = {}
        self._servers: List[str] = []
        self._listeners: List[Callable] = []
        self.tables = RoutingTables()
        self.topology_version = 0

        # Transfer bookkeeping (the conservation monitor's ground truth).
        self._ids = itertools.count()
        self.transfers_started = 0
        self.transfers_delivered = 0
        self.transfers_failed = 0
        self.degraded_deliveries = 0
        self.reroutes = 0
        self.in_flight = 0
        self.bytes_delivered = 0
        self.duplicate_deliveries = 0
        self._delivered_ids: Set[int] = set()

        for tor in self.tors:
            for spine in self.spines:
                self._add_link(tor, spine, spec.tor_uplink_gbps)
        for spine in self.spines:
            self._add_link(STORAGE_NODE, spine, spec.storage_link_gbps)
        self._recompute()
        sim.register_participant(f"fabric:{name}", self)

    # -- topology construction -----------------------------------------
    def _add_link(self, a: str, b: str, gbps: float) -> FabricLink:
        link = FabricLink(self.sim, a, b, gbps, self.spec.link_latency_s)
        self._links[link.name] = link
        self._adjacent.setdefault(a, {})[b] = link
        self._adjacent.setdefault(b, {})[a] = link
        return link

    def attach_server(self, name: str) -> str:
        """Home ``name`` on the next rack (round-robin); returns its IP."""
        if name in (STORAGE_NODE,) + self.tors + self.spines:
            raise ValueError(f"{name!r} collides with a fabric node")
        rack = len(self._servers) % self.spec.n_racks
        ip = self.ip.assign(name, rack)
        self._servers.append(name)
        tor = f"tor-{rack}"
        link = self._add_link(name, tor, self.spec.host_link_gbps)
        # One new leaf link: patch the routing snapshot rather than
        # re-reading every link, so building a region stays linear.
        self.topology_version += 1
        self.tables.attach(name, tor, link.latency_s, self.topology_version)
        self._notify()
        return ip

    @property
    def servers(self) -> Tuple[str, ...]:
        return tuple(self._servers)

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._adjacent))

    @property
    def switches(self) -> Tuple[str, ...]:
        return self.tors + self.spines

    @property
    def link_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._links))

    def link(self, name: str) -> FabricLink:
        try:
            return self._links[name]
        except KeyError:
            known = ", ".join(sorted(self._links))
            raise KeyError(
                f"no fabric link {name!r}; links: {known}") from None

    def rack_of(self, server: str) -> int:
        return self.ip.rack_of(server)

    def adjacency(self) -> Dict[str, Dict[str, float]]:
        """Weight map over *up* links only (what link-state advertises)."""
        out: Dict[str, Dict[str, float]] = {n: {} for n in self._adjacent}
        for node, nbrs in self._adjacent.items():
            for nbr, link in nbrs.items():
                if link.up:
                    out[node][nbr] = link.latency_s
        return out

    # -- topology change -----------------------------------------------
    def add_listener(self, callback: Callable) -> None:
        """``callback(network)`` fires after every route recomputation."""
        self._listeners.append(callback)

    def _recompute(self) -> None:
        self.topology_version += 1
        self.tables.recompute(self.adjacency(), self.topology_version)
        self._notify()

    def _notify(self) -> None:
        for callback in self._listeners:
            callback(self)

    def fail_link(self, name: str, cause: str = "link_flap") -> None:
        link = self.link(name)
        if not link.up:
            return
        link.fail()
        if self.accounting is not None:
            self.accounting.record_down(f"link:{name}", cause)
        self._recompute()

    def restore_link(self, name: str) -> None:
        link = self.link(name)
        if link.up:
            return
        link.restore()
        if self.accounting is not None:
            self.accounting.record_up(f"link:{name}")
        self._recompute()

    def flap_link(self, name: str, duration_s: float):
        """Process: take the link down, wait, bring it back."""
        self.fail_link(name, cause="link_flap")
        yield self.sim.timeout(duration_s)
        self.restore_link(name)

    def crash_switch(self, name: str, duration_s: float):
        """Process: a switch dies — every incident link drops with it."""
        if name not in self.switches:
            known = ", ".join(self.switches)
            raise KeyError(f"no fabric switch {name!r}; switches: {known}")
        downed = [link.name for link in self._adjacent[name].values()
                  if link.up]
        for lname in downed:
            self.fail_link(lname, cause="switch_crash")
        yield self.sim.timeout(duration_s)
        for lname in downed:
            self.restore_link(lname)

    # -- the datapath ---------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: int):
        """Process: move ``nbytes`` from ``src`` to ``dst``, rerouting
        around failures; raises ``RetryExhausted`` on partition."""
        for node in (src, dst):
            if node not in self._adjacent:
                raise KeyError(f"{node!r} is not attached to the fabric")
        tid = next(self._ids)
        self.transfers_started += 1
        self.in_flight += 1
        settled = False
        try:
            if src == dst:
                self._deliver(tid, nbytes, degraded=False)
                settled = True
                return
            attempts = 0
            degraded = False
            while True:
                ok = yield from self._forward_once(src, dst, nbytes)
                if ok:
                    break
                degraded = True
                self.reroutes += 1
                attempts += 1
                if attempts > self.spec.max_retries:
                    self.transfers_failed += 1
                    settled = True
                    if self.accounting is not None:
                        self.accounting.record_fault("partition", dst)
                    raise RetryExhausted(
                        f"fabric transfer {src}->{dst} ({nbytes} B) gave up "
                        f"after {attempts} attempts: no surviving path")
                yield self.sim.timeout(self._backoff(attempts))
            self._deliver(tid, nbytes, degraded=degraded)
            settled = True
        finally:
            self.in_flight -= 1
            if not settled:
                # The carrying process was killed mid-flight; account
                # the transfer as failed so conservation still balances.
                self.transfers_failed += 1

    def _deliver(self, tid: int, nbytes: int, degraded: bool) -> None:
        if tid in self._delivered_ids:
            self.duplicate_deliveries += 1
        else:
            self._delivered_ids.add(tid)
        self.transfers_delivered += 1
        self.bytes_delivered += nbytes
        if degraded:
            self.degraded_deliveries += 1
            if self.accounting is not None:
                self.accounting.record_fault("degraded_path", self.name)

    def _forward_once(self, src: str, dst: str, nbytes: int):
        """Process: one end-to-end attempt; returns False to reroute."""
        node = src
        hops = 0
        limit = len(self._adjacent) + 1
        while node != dst:
            hops += 1
            if hops > limit:
                # Tables are loop-free by construction; a walk this long
                # means they are not — fail the attempt, let the monitor
                # flag the real bug.
                return False
            nxt = self.tables.next_hop(node, dst)
            if nxt is None:
                return False
            link = self._adjacent[node].get(nxt)
            if link is None or not link.up:
                return False
            ok = yield from link.traverse(node, nbytes)
            if not ok:
                return False
            yield self.sim.timeout(link.latency_s)
            if nxt != dst and nxt in self._adjacent and nxt not in self._servers:
                yield self.sim.timeout(self.spec.switch_latency_s)
            node = nxt
        return True

    def _backoff(self, attempt: int) -> float:
        rng = self.sim.streams.get(BACKOFF_STREAM)
        base = min(self.spec.retry_backoff_s * (2 ** (attempt - 1)),
                   self.spec.retry_backoff_cap_s)
        return base * (0.5 + float(rng.random()))

    def transfer_time(self, src: str, dst: str, nbytes: int) -> Optional[float]:
        """Contention-free cost of ``src -> dst`` on current routes."""
        path = self.tables.path(src, dst)
        if path is None:
            return None
        total = 0.0
        for here, there in zip(path, path[1:]):
            link = self._adjacent[here][there]
            total += link.serialization_time(nbytes) + link.latency_s
            if there != dst and there not in self._servers:
                total += self.spec.switch_latency_s
        return total

    def counters(self) -> Dict[str, float]:
        """Monotonic transfer counters (for conservation monitors)."""
        return {
            "started": float(self.transfers_started),
            "delivered": float(self.transfers_delivered),
            "failed": float(self.transfers_failed),
            "degraded": float(self.degraded_deliveries),
            "reroutes": float(self.reroutes),
            "bytes_delivered": float(self.bytes_delivered),
            "duplicates": float(self.duplicate_deliveries),
        }

    # -- snapshot protocol ----------------------------------------------
    def snapshot_state(self) -> dict:
        if self.in_flight:
            raise RuntimeError(
                f"fabric {self.name!r} has {self.in_flight} transfers in "
                "flight; snapshots are taken at quiescence")
        # Transfer ids advance in lockstep with transfers_started, so
        # the counter alone rebuilds the id sequence on restore.
        return {
            "topology_version": self.topology_version,
            "links": {name: link.snapshot_state()
                      for name, link in sorted(self._links.items())},
            "counters": {
                "transfers_started": self.transfers_started,
                "transfers_delivered": self.transfers_delivered,
                "transfers_failed": self.transfers_failed,
                "degraded_deliveries": self.degraded_deliveries,
                "reroutes": self.reroutes,
                "bytes_delivered": self.bytes_delivered,
                "duplicate_deliveries": self.duplicate_deliveries,
            },
            "delivered_ids": sorted(self._delivered_ids),
        }

    def restore_state(self, state: dict) -> None:
        self.topology_version = state["topology_version"]
        for name, link_state in state["links"].items():
            self.link(name).restore_state(link_state)
        counters = state["counters"]
        self.transfers_started = counters["transfers_started"]
        self.transfers_delivered = counters["transfers_delivered"]
        self.transfers_failed = counters["transfers_failed"]
        self.degraded_deliveries = counters["degraded_deliveries"]
        self.reroutes = counters["reroutes"]
        self.bytes_delivered = counters["bytes_delivered"]
        self.duplicate_deliveries = counters["duplicate_deliveries"]
        self._delivered_ids = set(state["delivered_ids"])
        self._ids = itertools.count(self.transfers_started)
        self.tables.recompute(self.adjacency(), self.topology_version)
        self._notify()
