"""Placement scheduler for the mixed vm/bm fleet.

The cloud control plane "selects an available bare-metal server and
picks an idle compute board and powers it on" (Section 3.2). This
module is that selection logic: capacity records per server, first-fit
placement for bm boards and HT bin-packing for VMs.

Health-aware placement (DESIGN.md §13): a server can be *quarantined*,
which removes its capacity from the sellable pool without forgetting
its placements — guests already on a quarantined server stay tracked
so the remediation pipeline can drain them, but ``place`` never
selects it. :meth:`Scheduler.healthy_headroom` reports the remaining
free capacity on non-quarantined servers; the admission circuit
breaker keys off it.

Indexed placement (DESIGN.md §14): a million-guest region
(``repro.fleet.churn`` + ``experiments/region_scale``) pays O(log n)
per placement and O(1) per admission decision. Capacity state lives in
three places:

* the :class:`ServerCapacity` records, which are the truth;
* a per-kind min-heap of *registration indices*, the first-fit index,
  with ``_in_heap`` flagging which servers have an entry. Popping the
  heap yields candidates in registration order, so placement is
  exactly a linear first-fit scan. Entries go stale lazily — a server
  that filled up or was quarantined is dropped when popped; a VM
  server too full for *this* request but not empty is pushed back
  after the search;
* running totals (``_totals``), updated on every mutation, so
  ``capacity_summary``/``healthy_headroom`` are dictionary reads, not
  fleet walks. :meth:`Scheduler.recompute_summary` re-derives them
  from the records and :meth:`Scheduler.verify_index` checks both the
  totals and the heap invariant first fit depends on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

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

    def free_units(self) -> int:
        """Unused capacity in native units, quarantine ignored."""
        if self.kind == "bmhive":
            return self.board_slots - self.used_boards
        return self.sellable_hyperthreads - self.used_hyperthreads


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

# Per server kind: its server count, total, used, free and quarantined keys.
_KIND_KEYS = {
    "bmhive": ("bm_servers", "boards_total", "boards_used", "boards_free",
               "quarantined_boards"),
    "kvm": ("kvm_servers", "ht_total", "ht_used", "ht_free",
            "quarantined_ht"),
}


class Scheduler:
    """First-fit scheduler over a heterogeneous server pool."""

    def __init__(self):
        self.servers: Dict[str, ServerCapacity] = {}
        self.placements: Dict[str, Placement] = {}
        self._types: Dict[str, InstanceType] = {}
        self._ids = itertools.count(1)
        # -- availability index (DESIGN.md §14) -------------------------
        self._order: List[ServerCapacity] = []  # registration order
        self._reg_index: Dict[str, int] = {}
        self._avail: Dict[str, List[int]] = {"bmhive": [], "kvm": []}
        self._in_heap: List[bool] = []  # reg index has a heap entry
        self._totals: Dict[str, int] = {key: 0 for key in _SUMMARY_KEYS}

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
        self._order.append(server)
        self._reg_index[server.name] = idx
        totals = self._totals
        if server.kind == "bmhive":
            totals["bm_servers"] += 1
            totals["boards_total"] += server.board_slots
            totals["boards_free"] += server.board_slots
        else:
            totals["kvm_servers"] += 1
            totals["ht_total"] += server.sellable_hyperthreads
            totals["ht_free"] += server.sellable_hyperthreads
        self._in_heap.append(False)
        self._push(idx)
        return server

    def _push(self, idx: int) -> None:
        """Give a healthy server with free capacity its heap entry."""
        server = self._order[idx]
        if not self._in_heap[idx] and not server.quarantined \
                and server.free_units() > 0:
            heappush(self._avail[server.kind], idx)
            self._in_heap[idx] = True

    # -- health --------------------------------------------------------------
    def quarantine(self, name: str) -> bool:
        """Remove ``name`` from the placement pool; returns True on change.

        Existing placements stay tracked (the remediation pipeline
        drains them); only *new* placements are excluded.
        """
        server = self._server(name)
        changed = not server.quarantined
        if changed:
            server.quarantined = True
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
            totals = self._totals
            totals["quarantined_servers"] -= 1
            if server.kind == "bmhive":
                totals["quarantined_boards"] -= server.board_slots
                totals["boards_free"] += server.free_units()
            else:
                totals["quarantined_ht"] -= server.sellable_hyperthreads
                totals["ht_free"] += server.free_units()
            self._push(self._reg_index[name])
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

    # -- scheduling --------------------------------------------------------------
    def _first_fit(self, kind: str, need: int) -> Optional[int]:
        """Claim ``need`` units on the first server that fits.

        Returns the registration index of the lowest-indexed
        non-quarantined ``kind`` server with ``need`` free units, after
        charging them through :meth:`_consume`; ``None`` if none fits.
        The heap holds every such server, so its minimum live entry is
        exactly the server a linear scan would choose. Stale entries
        (filled up or quarantined since pushed) are dropped; kvm
        servers too full for this request but not empty are pushed
        back.

        The healthy free total is a necessary condition: for bm
        (``need == 1``) it is exact, for kvm a fragmented pool still
        falls through to the scan.
        """
        if self._totals["boards_free" if kind == "bmhive" else "ht_free"] < need:
            return None
        heap = self._avail[kind]
        in_heap = self._in_heap
        order = self._order
        skipped: List[int] = []
        found: Optional[int] = None
        while heap:
            idx = heappop(heap)
            server = order[idx]
            free = server.free_units()
            if not server.quarantined and free >= need:
                in_heap[idx] = False
                found = idx
                break
            if server.quarantined or free <= 0:
                in_heap[idx] = False    # stale entry: drop for good
            else:
                skipped.append(idx)     # free, just not big enough here
        for idx in skipped:
            heappush(heap, idx)
        if found is not None:
            self._consume(found, need)
        return found

    def _consume(self, idx: int, need: int) -> None:
        """Charge ``need`` units to the server at ``idx``."""
        server = self._order[idx]
        if server.kind == "bmhive":
            server.used_boards += need
            self._totals["boards_used"] += need
            self._totals["boards_free"] -= need
        else:
            server.used_hyperthreads += need
            self._totals["ht_used"] += need
            self._totals["ht_free"] -= need
        self._push(idx)

    def _restore(self, idx: int, need: int) -> None:
        """Return ``need`` units of the server at ``idx`` to the pool."""
        server = self._order[idx]
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
        self._push(idx)

    def _no_capacity(self, what: str) -> CapacityError:
        summary = self.capacity_summary()
        return CapacityError(
            f"no capacity for {what}: "
            f"boards {summary['boards_free']}/{summary['boards_total']} free "
            f"({summary['bm_servers']} bm servers), "
            f"hyperthreads {summary['ht_free']}/{summary['ht_total']} free "
            f"({summary['kvm_servers']} kvm servers), "
            f"{summary['quarantined_servers']} quarantined "
            f"({summary['quarantined_boards']} boards, "
            f"{summary['quarantined_ht']} HT held back)",
            details=summary,
        )

    def place(self, itype: InstanceType) -> Placement:
        """Place one instance; first fit in registration order."""
        if itype.kind == "bm":
            idx = self._first_fit("bmhive", 1)
        else:
            idx = self._first_fit("kvm", itype.hyperthreads)
        if idx is None:
            raise self._no_capacity(f"{itype.name} ({itype.kind})")
        placement = Placement(
            instance_id=f"i-{next(self._ids):06d}",
            server=self._order[idx].name,
            instance_type=itype.name,
        )
        self.placements[placement.instance_id] = placement
        self._types[placement.instance_id] = itype
        return placement

    def release(self, instance_id: str) -> None:
        """Return an instance's capacity to the pool."""
        placement = self.placements.pop(instance_id, None)
        if placement is None:
            raise KeyError(f"unknown instance {instance_id!r}")
        itype = self._types.pop(instance_id)
        self._restore(self._reg_index[placement.server],
                      1 if itype.kind == "bm" else itype.hyperthreads)

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
        idx = self._first_fit("bmhive", 1)
        if idx is None:
            raise self._no_capacity("board (bm)")
        return idx

    def release_board(self, reg_index: int) -> None:
        """Return one board placed via :meth:`place_board`.

        Raises ``KeyError`` when ``reg_index`` names no bm server with
        a board in use, as :meth:`release` does for an unknown id.
        """
        if not 0 <= reg_index < len(self._order):
            raise KeyError(f"no server at registration index {reg_index!r}")
        server = self._order[reg_index]
        if server.kind != "bmhive" or server.used_boards <= 0:
            raise KeyError(
                f"no board in use on {server.name!r} ({server.kind}) "
                f"at registration index {reg_index}")
        self._restore(reg_index, 1)

    def server_name(self, reg_index: int) -> str:
        """Name of the server at ``reg_index`` (registration order)."""
        return self._order[reg_index].name

    # -- reporting -----------------------------------------------------------------
    def capacity_summary(self) -> Dict[str, int]:
        """Per-kind free/used/quarantined capacity counts.

        Free counts exclude quarantined servers (their capacity is not
        sellable); totals include them, so ``boards_free/boards_total``
        is the healthy headroom fraction the circuit breaker watches.

        O(1): a copy of the running totals. The admission breaker calls
        this per arrival, so at region scale it must not walk the
        fleet; :meth:`recompute_summary` re-derives the same dict from
        the server records.
        """
        return dict(self._totals)

    def recompute_summary(self) -> Dict[str, int]:
        """Ground-truth summary: one walk over the server records."""
        out = {key: 0 for key in _SUMMARY_KEYS}
        for server in self._order:
            if server.kind == "bmhive":
                cap, used = server.board_slots, server.used_boards
            else:
                cap, used = server.sellable_hyperthreads, server.used_hyperthreads
            count, total, used_key, free, held = _KIND_KEYS[server.kind]
            out[count] += 1
            out[total] += cap
            out[used_key] += used
            if server.quarantined:
                out["quarantined_servers"] += 1
                out[held] += cap
            else:
                out[free] += cap - used
        return out

    def verify_index(self) -> bool:
        """Check the running totals and the heap against the records.

        The totals must equal :meth:`recompute_summary`. Each heap must
        hold no duplicate, ``_in_heap`` must flag exactly the servers
        with an entry, and every non-quarantined server with free
        capacity must have one — the invariant first fit depends on.
        Raises :class:`SchedulerIndexError` on divergence; returns True
        otherwise.
        """
        cached = self.capacity_summary()
        truth = self.recompute_summary()
        if cached != truth:
            raise SchedulerIndexError(
                f"summary counters diverged from server records:\n"
                f"  cached:   {cached}\n  recomputed: {truth}")
        entries = {kind: set(heap) for kind, heap in self._avail.items()}
        if sum(map(len, self._avail.values())) != sum(self._in_heap):
            raise SchedulerIndexError(
                f"heaps hold {sum(map(len, self._avail.values()))} entries "
                f"but {sum(self._in_heap)} servers are flagged in_heap")
        for idx, server in enumerate(self._order):
            listed = idx in entries[server.kind]
            placeable = not server.quarantined and server.free_units() > 0
            if self._in_heap[idx] != listed or (placeable and not listed):
                raise SchedulerIndexError(
                    f"{server.name} heap entry diverged: "
                    f"listed={listed} in_heap={self._in_heap[idx]} "
                    f"free={server.free_units()} "
                    f"quarantined={server.quarantined}")
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
