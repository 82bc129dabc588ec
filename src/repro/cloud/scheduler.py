"""Placement scheduler for the mixed vm/bm fleet.

The cloud control plane "selects an available bare-metal server and
picks an idle compute board and powers it on" (Section 3.2). This
module is that selection logic: capacity records per server, first-fit
placement for bm boards and HT bin-packing for VMs, plus utilization
accounting the density experiment uses.

Health-aware placement (DESIGN.md §13): a server can be *quarantined*,
which removes its capacity from the sellable pool without forgetting
its placements — guests already on a quarantined server stay tracked
so the remediation pipeline can drain them, but ``place`` never
selects it. :meth:`Scheduler.healthy_headroom` reports the remaining
free capacity on non-quarantined servers; the admission circuit
breaker keys off it.

Indexed placement (DESIGN.md §14): ``place`` used to scan every
registered server per call, and ``capacity_summary`` — called per
arrival through the admission breaker — re-walked the fleet too. Both
are now backed by an availability index so a million-guest region
(``repro.fleet.churn`` + ``experiments/region_scale``) pays O(log n)
per placement and O(1) per admission decision:

* a per-kind min-heap of *registration indices* of servers believed to
  have free capacity. Popping the heap yields candidates in exact
  registration order, so first-fit placement order is bit-identical to
  the old linear scan (the existing goldens prove it). Entries go
  stale lazily — a server that filled up or was quarantined is simply
  dropped when popped; a VM candidate too full for *this* request but
  not empty is pushed back after the search;
* per-kind headroom-bucketed free lists — ``{free_slots: {names}}``
  dict-of-sets over non-quarantined servers — giving O(1) membership
  moves on place/release and an O(#distinct levels) "can anything fit
  this request?" pre-check (:meth:`headroom_histogram` exposes them);
* running aggregate counters maintained on every mutation, so
  ``capacity_summary``/``healthy_headroom`` are dictionary copies, not
  fleet walks — plus numpy capacity arrays (one slot per registration
  index) from which :meth:`recompute_summary` re-derives the summary
  with vectorized reductions; :meth:`verify_index` asserts the two
  agree, which the scale experiment and the unit tests gate on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cloud.inventory import InstanceType

__all__ = ["ServerCapacity", "Placement", "Scheduler", "CapacityError",
           "SchedulerIndexError"]


class CapacityError(Exception):
    """Raised when no server can host the requested instance.

    Carries a structured ``details`` dict (per-kind free/used counts
    and the quarantined tally) so placement failures at fleet scale are
    debuggable from the exception alone.
    """

    def __init__(self, message: str, details: Optional[Dict] = None):
        super().__init__(message)
        self.details: Dict = dict(details or {})


class SchedulerIndexError(AssertionError):
    """The incremental placement index diverged from its recompute.

    An ``AssertionError`` subclass, so callers catching a failed
    invariant keep working — but raised explicitly, so the check still
    runs under ``python -O``.
    """


@dataclass
class ServerCapacity:
    """Capacity record for one physical server in the pool."""

    name: str
    kind: str                      # "bmhive" or "kvm"
    board_slots: int = 0           # bm servers: free compute-board slots
    sellable_hyperthreads: int = 0  # kvm servers: schedulable HT
    used_boards: int = 0
    used_hyperthreads: int = 0
    quarantined: bool = False      # excluded from placement while set

    def can_host(self, itype: InstanceType) -> bool:
        if self.quarantined:
            return False
        if itype.kind == "bm":
            return self.kind == "bmhive" and self.used_boards < self.board_slots
        return (
            self.kind == "kvm"
            and self.used_hyperthreads + itype.hyperthreads <= self.sellable_hyperthreads
        )

    def capacity_units(self) -> int:
        """Total capacity in this server's native unit (boards or HT)."""
        return self.board_slots if self.kind == "bmhive" \
            else self.sellable_hyperthreads

    def free_units(self) -> int:
        """Unused capacity in native units, quarantine ignored."""
        if self.kind == "bmhive":
            return self.board_slots - self.used_boards
        return self.sellable_hyperthreads - self.used_hyperthreads

    def utilization(self) -> float:
        if self.kind == "bmhive":
            return self.used_boards / self.board_slots if self.board_slots else 0.0
        if not self.sellable_hyperthreads:
            return 0.0
        return self.used_hyperthreads / self.sellable_hyperthreads


@dataclass(frozen=True)
class Placement:
    """A successful scheduling decision."""

    instance_id: str
    server: str
    instance_type: str


_SUMMARY_KEYS = (
    "bm_servers", "kvm_servers",
    "boards_total", "boards_used", "boards_free",
    "ht_total", "ht_used", "ht_free",
    "quarantined_servers", "quarantined_boards", "quarantined_ht",
)


class Scheduler:
    """First-fit scheduler over a heterogeneous server pool."""

    def __init__(self):
        self.servers: Dict[str, ServerCapacity] = {}
        self.placements: Dict[str, Placement] = {}
        self._types: Dict[str, InstanceType] = {}
        self._ids = itertools.count(1)
        # -- availability index (DESIGN.md §14) -------------------------
        self._order: List[str] = []            # registration order
        self._reg_index: Dict[str, int] = {}
        self._avail: Dict[str, List[int]] = {"bmhive": [], "kvm": []}
        self._in_heap: Dict[str, bool] = {}    # name has a live heap entry
        self._free_sets: Dict[str, Dict[int, Set[str]]] = {
            "bmhive": {}, "kvm": {}}
        self._totals: Dict[str, int] = {key: 0 for key in _SUMMARY_KEYS}
        # numpy capacity arrays, one slot per registration index.
        self._np_cap = np.zeros(64, dtype=np.int64)
        self._np_used = np.zeros(64, dtype=np.int64)
        self._np_bm = np.zeros(64, dtype=bool)
        self._np_quar = np.zeros(64, dtype=bool)

    # -- pool management -----------------------------------------------------
    def add_bmhive_server(self, name: str, board_slots: int) -> ServerCapacity:
        return self._add(ServerCapacity(name=name, kind="bmhive", board_slots=board_slots))

    def add_kvm_server(self, name: str, sellable_hyperthreads: int = 88) -> ServerCapacity:
        return self._add(
            ServerCapacity(
                name=name, kind="kvm", sellable_hyperthreads=sellable_hyperthreads
            )
        )

    def _add(self, server: ServerCapacity) -> ServerCapacity:
        if server.name in self.servers:
            raise ValueError(f"server {server.name!r} already registered")
        self.servers[server.name] = server
        idx = len(self._order)
        self._order.append(server.name)
        self._reg_index[server.name] = idx
        if idx >= len(self._np_cap):
            self._grow_arrays()
        self._np_cap[idx] = server.capacity_units()
        self._np_used[idx] = 0
        self._np_bm[idx] = server.kind == "bmhive"
        self._np_quar[idx] = False
        totals = self._totals
        if server.kind == "bmhive":
            totals["bm_servers"] += 1
            totals["boards_total"] += server.board_slots
            totals["boards_free"] += server.board_slots
        else:
            totals["kvm_servers"] += 1
            totals["ht_total"] += server.sellable_hyperthreads
            totals["ht_free"] += server.sellable_hyperthreads
        self._bucket_add(server)
        if server.free_units() > 0:
            heappush(self._avail[server.kind], idx)
            self._in_heap[server.name] = True
        else:
            self._in_heap[server.name] = False
        return server

    def _grow_arrays(self) -> None:
        size = 2 * len(self._np_cap)
        for attr in ("_np_cap", "_np_used", "_np_bm", "_np_quar"):
            old = getattr(self, attr)
            fresh = np.zeros(size, dtype=old.dtype)
            fresh[: len(old)] = old
            setattr(self, attr, fresh)

    # -- free-list buckets ---------------------------------------------------
    def _bucket_add(self, server: ServerCapacity) -> None:
        buckets = self._free_sets[server.kind]
        free = server.free_units()
        members = buckets.get(free)
        if members is None:
            buckets[free] = members = set()
        members.add(server.name)

    def _bucket_remove(self, server: ServerCapacity, free: int) -> None:
        buckets = self._free_sets[server.kind]
        members = buckets[free]
        members.discard(server.name)
        if not members:
            del buckets[free]

    def _bucket_move(self, server: ServerCapacity, old_free: int) -> None:
        if not server.quarantined:
            self._bucket_remove(server, old_free)
            self._bucket_add(server)

    def headroom_histogram(self, kind: str = "bmhive") -> Dict[int, int]:
        """Non-quarantined server count per free-capacity level, sorted."""
        if kind not in self._free_sets:
            raise ValueError(
                f"kind must be 'bmhive' or 'kvm', got {kind!r}")
        return {free: len(members) for free, members
                in sorted(self._free_sets[kind].items())}

    def _any_fit(self, kind: str, need: int) -> bool:
        return any(free >= need and members
                   for free, members in self._free_sets[kind].items())

    # -- health --------------------------------------------------------------
    def quarantine(self, name: str) -> bool:
        """Remove ``name`` from the placement pool; returns True on change.

        Existing placements stay tracked (the remediation pipeline
        drains them); only *new* placements are excluded.
        """
        server = self._server(name)
        changed = not server.quarantined
        if changed:
            self._bucket_remove(server, server.free_units())
            server.quarantined = True
            self._np_quar[self._reg_index[name]] = True
            totals = self._totals
            totals["quarantined_servers"] += 1
            if server.kind == "bmhive":
                totals["quarantined_boards"] += server.board_slots
                totals["boards_free"] -= server.free_units()
            else:
                totals["quarantined_ht"] += server.sellable_hyperthreads
                totals["ht_free"] -= server.free_units()
            # The heap entry (if any) goes stale and is dropped lazily
            # on pop; _in_heap keeps tracking it so readmission never
            # double-pushes.
        return changed

    def readmit(self, name: str) -> bool:
        """Return ``name`` to the placement pool; returns True on change."""
        server = self._server(name)
        changed = server.quarantined
        if changed:
            server.quarantined = False
            self._np_quar[self._reg_index[name]] = False
            totals = self._totals
            totals["quarantined_servers"] -= 1
            if server.kind == "bmhive":
                totals["quarantined_boards"] -= server.board_slots
                totals["boards_free"] += server.free_units()
            else:
                totals["quarantined_ht"] -= server.sellable_hyperthreads
                totals["ht_free"] += server.free_units()
            self._bucket_add(server)
            if server.free_units() > 0 and not self._in_heap[name]:
                heappush(self._avail[server.kind], self._reg_index[name])
                self._in_heap[name] = True
        return changed

    def quarantined_servers(self) -> Tuple[str, ...]:
        return tuple(sorted(
            n for n, s in self.servers.items() if s.quarantined))

    def _server(self, name: str) -> ServerCapacity:
        try:
            return self.servers[name]
        except KeyError:
            known = ", ".join(sorted(self.servers)) or "(none)"
            raise KeyError(
                f"unknown server {name!r}; servers: {known}") from None

    def placements_on(self, name: str) -> Tuple[Placement, ...]:
        """Placements currently hosted on ``name``, in id order."""
        self._server(name)
        return tuple(
            self.placements[iid] for iid in sorted(self.placements)
            if self.placements[iid].server == name
        )

    # -- scheduling --------------------------------------------------------------
    def _first_fit(self, itype: InstanceType) -> Optional[ServerCapacity]:
        """Pop the lowest-registration-index server that can host.

        The heap holds every server believed free, so the minimum live
        index that passes ``can_host`` is exactly the server the old
        linear scan would have chosen. Stale entries (filled up or
        quarantined since pushed) are discarded; VM servers too full
        for this request but not for a smaller one are pushed back.
        """
        kind = "bmhive" if itype.kind == "bm" else "kvm"
        need = 1 if itype.kind == "bm" else itype.hyperthreads
        if not self._any_fit(kind, need):
            return None
        heap = self._avail[kind]
        in_heap = self._in_heap
        skipped: List[int] = []
        found: Optional[ServerCapacity] = None
        while heap:
            idx = heappop(heap)
            name = self._order[idx]
            server = self.servers[name]
            if server.can_host(itype):
                in_heap[name] = False
                found = server
                break
            if server.quarantined or server.free_units() <= 0:
                in_heap[name] = False   # stale entry: drop for good
            else:
                skipped.append(idx)     # free, just not big enough here
        for idx in skipped:
            heappush(heap, idx)
        return found

    def _consume(self, server: ServerCapacity, need: int) -> int:
        """Charge ``need`` units to ``server``; returns its reg index."""
        idx = self._reg_index[server.name]
        old_free = server.free_units()
        if server.kind == "bmhive":
            server.used_boards += need
            self._totals["boards_used"] += need
            self._totals["boards_free"] -= need
        else:
            server.used_hyperthreads += need
            self._totals["ht_used"] += need
            self._totals["ht_free"] -= need
        self._np_used[idx] += need
        self._bucket_move(server, old_free)
        if server.free_units() > 0 and not self._in_heap[server.name]:
            heappush(self._avail[server.kind], idx)
            self._in_heap[server.name] = True
        return idx

    def _restore(self, server: ServerCapacity, need: int) -> None:
        """Return ``need`` units of ``server``'s capacity to the pool."""
        idx = self._reg_index[server.name]
        old_free = server.free_units()
        quarantined = server.quarantined
        if server.kind == "bmhive":
            server.used_boards -= need
            self._totals["boards_used"] -= need
            if not quarantined:
                self._totals["boards_free"] += need
        else:
            server.used_hyperthreads -= need
            self._totals["ht_used"] -= need
            if not quarantined:
                self._totals["ht_free"] += need
        self._np_used[idx] -= need
        self._bucket_move(server, old_free)
        if not quarantined and not self._in_heap[server.name]:
            heappush(self._avail[server.kind], idx)
            self._in_heap[server.name] = True

    def place(self, itype: InstanceType) -> Placement:
        """Place one instance; first fit in registration order."""
        server = self._first_fit(itype)
        if server is not None:
            self._consume(server, 1 if itype.kind == "bm"
                          else itype.hyperthreads)
            placement = Placement(
                instance_id=f"i-{next(self._ids):06d}",
                server=server.name,
                instance_type=itype.name,
            )
            self.placements[placement.instance_id] = placement
            self._types[placement.instance_id] = itype
            return placement
        summary = self.capacity_summary()
        raise CapacityError(
            f"no capacity for {itype.name} ({itype.kind}): "
            f"boards {summary['boards_free']}/{summary['boards_total']} free "
            f"({summary['bm_servers']} bm servers), "
            f"hyperthreads {summary['ht_free']}/{summary['ht_total']} free "
            f"({summary['kvm_servers']} kvm servers), "
            f"{summary['quarantined_servers']} quarantined "
            f"({summary['quarantined_boards']} boards, "
            f"{summary['quarantined_ht']} HT held back)",
            details=summary,
        )

    def release(self, instance_id: str) -> None:
        """Return an instance's capacity to the pool."""
        placement = self.placements.pop(instance_id, None)
        if placement is None:
            raise KeyError(f"unknown instance {instance_id!r}")
        itype = self._types.pop(instance_id)
        server = self.servers[placement.server]
        self._restore(server, 1 if itype.kind == "bm"
                      else itype.hyperthreads)

    # -- indexed bulk placement (vectorized churn hot path) ------------------
    def place_board(self) -> int:
        """Place one bm board without minting a Placement record.

        The vectorized churn engine tracks guests in numpy arrays, so
        string instance ids and per-placement dataclasses would be pure
        overhead at a million lifetimes. This returns the chosen
        server's *registration index* — the same server ``place`` would
        pick for a bm instance — and the caller releases it later with
        :meth:`release_board`. Placements made this way do not appear
        in ``self.placements`` (there is no id to look them up by).
        """
        heap = self._avail["bmhive"]
        in_heap = self._in_heap
        order = self._order
        servers = self.servers
        while heap:
            idx = heappop(heap)
            name = order[idx]
            server = servers[name]
            if not server.quarantined and server.used_boards < server.board_slots:
                in_heap[name] = False
                self._consume(server, 1)
                return idx
            in_heap[name] = False
        summary = self.capacity_summary()
        raise CapacityError(
            f"no capacity for board (bm): "
            f"boards {summary['boards_free']}/{summary['boards_total']} free "
            f"({summary['bm_servers']} bm servers), "
            f"{summary['quarantined_servers']} quarantined",
            details=summary,
        )

    def release_board(self, reg_index: int) -> None:
        """Return one board placed via :meth:`place_board`."""
        self._restore(self.servers[self._order[reg_index]], 1)

    def server_name(self, reg_index: int) -> str:
        """Name of the server at ``reg_index`` (registration order)."""
        return self._order[reg_index]

    # -- reporting -----------------------------------------------------------------
    def capacity_summary(self) -> Dict[str, int]:
        """Per-kind free/used/quarantined capacity counts.

        Free counts exclude quarantined servers (their capacity is not
        sellable); totals include them, so ``boards_free/boards_total``
        is the healthy headroom fraction the circuit breaker watches.

        O(1): a copy of aggregates maintained on every mutation. The
        admission breaker calls this per arrival, so at region scale it
        must not walk the fleet; :meth:`recompute_summary` re-derives
        the same dict from the numpy capacity arrays when you want the
        ground truth instead of the running counters.
        """
        return dict(self._totals)

    def recompute_summary(self) -> Dict[str, int]:
        """Vectorized ground-truth summary from the capacity arrays."""
        n = len(self._order)
        cap = self._np_cap[:n]
        used = self._np_used[:n]
        bm = self._np_bm[:n]
        quar = self._np_quar[:n]
        kvm = ~bm
        healthy = ~quar
        free = cap - used
        out = {key: 0 for key in _SUMMARY_KEYS}
        out["bm_servers"] = int(bm.sum())
        out["kvm_servers"] = int(kvm.sum())
        out["boards_total"] = int(cap[bm].sum())
        out["boards_used"] = int(used[bm].sum())
        out["boards_free"] = int(free[bm & healthy].sum())
        out["ht_total"] = int(cap[kvm].sum())
        out["ht_used"] = int(used[kvm].sum())
        out["ht_free"] = int(free[kvm & healthy].sum())
        out["quarantined_servers"] = int(quar.sum())
        out["quarantined_boards"] = int(cap[bm & quar].sum())
        out["quarantined_ht"] = int(cap[kvm & quar].sum())
        return out

    def verify_index(self) -> bool:
        """Assert the running aggregates match the vectorized recompute.

        Also checks that every non-quarantined server sits in exactly
        the free-list bucket its capacity record implies. Raises
        :class:`SchedulerIndexError` on divergence; returns True otherwise.
        """
        cached = self.capacity_summary()
        truth = self.recompute_summary()
        if cached != truth:
            raise SchedulerIndexError(
                f"summary counters diverged from capacity arrays:\n"
                f"  cached:   {cached}\n  recomputed: {truth}")
        for kind, buckets in self._free_sets.items():
            seen = {name for members in buckets.values() for name in members}
            expected = {s.name for s in self.servers.values()
                        if s.kind == kind and not s.quarantined}
            if seen != expected:
                raise SchedulerIndexError(
                    f"{kind} free-list membership diverged: "
                    f"missing={sorted(expected - seen)} "
                    f"extra={sorted(seen - expected)}")
            for free, members in buckets.items():
                for name in members:
                    actual = self.servers[name].free_units()
                    if actual != free:
                        raise SchedulerIndexError(
                            f"{name} bucketed at free={free} "
                            f"but has {actual}")
        return True

    def healthy_headroom(self, kind: str = "bm") -> float:
        """Free non-quarantined capacity as a fraction of nominal total.

        The denominator is the *nominal* fleet (quarantined capacity
        included), so quarantining a rack shrinks headroom even on an
        idle fleet — exactly the signal the admission circuit breaker
        wants: "how much of what we sold can we still actually place?"
        """
        totals = self._totals
        if kind == "bm":
            total, free = totals["boards_total"], totals["boards_free"]
        elif kind == "vm":
            total, free = totals["ht_total"], totals["ht_free"]
        else:
            raise ValueError(f"kind must be 'bm' or 'vm', got {kind!r}")
        return free / total if total else 1.0

    def pool_utilization(self, kind: Optional[str] = None) -> float:
        servers = [
            s for s in self.servers.values() if kind is None or s.kind == kind
        ]
        if not servers:
            return 0.0
        return sum(s.utilization() for s in servers) / len(servers)

    def total_sellable_hyperthreads(self, board_hyperthreads: int = 32) -> Dict[str, int]:
        """Sellable HT per server kind (density comparison input)."""
        totals = {"bmhive": 0, "kvm": 0}
        for server in self.servers.values():
            if server.kind == "bmhive":
                totals["bmhive"] += server.board_slots * board_hyperthreads
            else:
                totals["kvm"] += server.sellable_hyperthreads
        return totals
