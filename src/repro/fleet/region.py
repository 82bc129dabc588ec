"""A multi-rack region under churn: the fleet-scale resilience testbed.

The paper's control plane "selects an available bare-metal server and
picks an idle compute board" (Section 3.2); this module scales that
loop to a region — racks of bm servers on a Clos fabric, tenant
arrival/exit churn, fleet health probes, a remediation pipeline, and
tier-aware admission — so correlated failures (rack power, ToR death,
board-hang storms) can be drilled end to end (DESIGN.md §13).

A :class:`Region` is capacity math plus control plane: guests are
scheduler placements with tiers and lifetimes, not simulated boards.
That keeps a 4-rack × 16-server × 20-simulated-second drill cheap
enough for CI while every control-plane path (probe → quarantine →
drain → repair → readmit, breaker-shed under lost headroom) is the
real production code from ``repro.cloud``.

Determinism: all randomness comes from the ``region.arrivals`` named
stream; every collection is iterated in sorted order; probes and
drains use fixed policy timers. Same seed + same spec + same fault
plan → byte-identical :meth:`Region.report`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cloud.admission import (
    TIERS,
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
)
from repro.cloud.audit import AuditLog
from repro.cloud.health import (
    FleetHealth,
    HealthPolicy,
    RemediationPipeline,
    RemediationTicket,
)
from repro.cloud.inventory import instance
from repro.cloud.scheduler import CapacityError, Scheduler
from repro.fabric.network import STORAGE_NODE, FabricNetwork
from repro.fabric.topology import TopologySpec
from repro.faults.accounting import AvailabilityAccounting
from repro.faults.spec import REGION_KINDS, FaultPlan, FaultSpec
from repro.hypervisor.health import BoardHealth

__all__ = ["RegionSpec", "RegionGuest", "Region", "ARRIVAL_STREAM"]

ARRIVAL_STREAM = "region.arrivals"

_TIER_RANK = {tier: rank for rank, tier in enumerate(TIERS)}


@dataclass(frozen=True)
class RegionSpec:
    """Sizing, churn, and policy knobs for one region drill.

    The defaults give a 4-rack × 2-server × 8-board region (64 boards)
    running at ~85% occupancy — high enough that losing one rack drops
    healthy headroom below the best-effort shed watermark, low enough
    that premium migrations always find a board.
    """

    n_racks: int = 4
    servers_per_rack: int = 2
    boards_per_server: int = 8
    n_spines: int = 2
    duration_s: float = 16.0
    arrival_rate_per_s: float = 22.0
    mean_lifetime_s: float = 2.5
    tier_mix: Tuple[Tuple[str, float], ...] = (
        ("premium", 0.25),
        ("standard", 0.45),
        ("best_effort", 0.30),
    )
    instance_type: str = "ebm.e5.32ht"
    n_tenants: int = 64
    # Build the Clos fabric and routing tables. Scale shards
    # (experiments/region_scale.py) turn this off: every attach
    # re-snapshots the whole adjacency, so building stays quadratic in
    # servers, and a fault-free churn benchmark never consults the
    # fabric. With the stub, probes treat storage as always reachable
    # and tor faults cannot be armed.
    fabric: bool = True
    migration_s: float = 2e-3     # per-guest move time during drain
    drain_retry_s: float = 5e-3   # back-off while waiting for capacity
    drain_timeout_s: float = 2.0  # give up migrating a guest after this
    health: HealthPolicy = HealthPolicy(
        probe_interval_s=5e-3, quarantine_after_misses=2, repair_s=0.25)
    admission: AdmissionPolicy = AdmissionPolicy(
        shed_at=(("best_effort", 0.12), ("standard", 0.03)))

    def __post_init__(self):
        if self.n_racks < 1 or self.servers_per_rack < 1:
            raise ValueError("region needs at least one rack and server")
        if abs(sum(w for _, w in self.tier_mix) - 1.0) > 1e-9:
            raise ValueError(
                f"tier mix must sum to 1, got {self.tier_mix}")
        if tuple(t for t, _ in self.tier_mix) != TIERS:
            raise ValueError(
                f"tier mix must cover every tier in order {TIERS}")

    # -- static naming (usable before any Region exists) ---------------
    def rack_names(self) -> Tuple[str, ...]:
        return tuple(f"rack-{r}" for r in range(self.n_racks))

    def tor_names(self) -> Tuple[str, ...]:
        return tuple(f"tor-{r}" for r in range(self.n_racks))

    def server_names(self) -> Tuple[str, ...]:
        return tuple(
            f"r{r}-s{i}"
            for r in range(self.n_racks)
            for i in range(self.servers_per_rack)
        )

    def servers_in_rack(self, rack: str) -> Tuple[str, ...]:
        r = int(rack.split("-", 1)[1])
        if not 0 <= r < self.n_racks:
            raise KeyError(f"unknown rack {rack!r}")
        return tuple(f"r{r}-s{i}" for i in range(self.servers_per_rack))


@dataclass
class RegionGuest:
    """One tenant guest: a tiered placement with a lifetime."""

    guest_id: str
    tenant: str
    tier: str
    server: str
    placement_id: str
    placed_s: float
    lifetime_s: float
    state: str = "running"        # running | down | exited | failed
    migrations: int = 0
    ended_s: Optional[float] = None

    def window_s(self, now: float) -> float:
        end = self.ended_s if self.ended_s is not None else now
        return max(0.0, end - self.placed_s)


class _AlwaysReachable:
    """Routing-table stand-in: every node reaches every node."""

    @staticmethod
    def reachable(src: str, dst: str) -> bool:
        return True


class _StubFabric:
    """Fabric stand-in for ``RegionSpec(fabric=False)`` scale shards.

    Exposes the surfaces the region consults — ``tors`` (empty, so
    tor fault plans are rejected as unknown targets),
    ``tables.reachable`` (always true, so probes see storage up) and
    ``topology_version`` (constant: the stub's routes never change).
    """

    tors: Tuple[str, ...] = ()
    topology_version = 0

    def __init__(self):
        self.tables = _AlwaysReachable()


class Region:
    """Racks + fabric + churn + health + remediation + admission."""

    def __init__(self, sim, spec: Optional[RegionSpec] = None):
        self.sim = sim
        self.spec = spec or RegionSpec()
        s = self.spec
        self.audit = AuditLog(sim)
        self.accounting = AvailabilityAccounting(sim)
        self.scheduler = Scheduler()
        if s.fabric:
            self.network = FabricNetwork(
                sim, TopologySpec.clos(n_racks=s.n_racks, n_spines=s.n_spines),
                name="region")
        else:
            self.network = _StubFabric()
        # Attach rack-by-rack interleaved so the fabric's round-robin
        # rack assignment matches the name: r{r}-s{i} homes on tor-{r}.
        for i in range(s.servers_per_rack):
            for r in range(s.n_racks):
                name = f"r{r}-s{i}"
                self.scheduler.add_bmhive_server(
                    name, board_slots=s.boards_per_server)
                if s.fabric:
                    self.network.attach_server(name)
        self._server_names = s.server_names()
        self.rack_servers = {
            rack: s.servers_in_rack(rack) for rack in s.rack_names()}
        self.health = FleetHealth(
            sim, self.scheduler, policy=s.health,
            audit=self.audit, accounting=self.accounting)
        self.pipeline = RemediationPipeline(
            sim, self.health, drainer=self._drain,
            ready=self._probe_ok, on_close=self._ticket_closed)
        self.admission = AdmissionController(
            sim, self.scheduler, policy=s.admission, audit=self.audit)
        self._itype = instance(s.instance_type)

        # Physical truth the probes observe; written only through
        # _set_truth, so the next sweep re-probes what changed.
        self._server_up: Dict[str, bool] = {
            n: True for n in self._server_names}
        self._board_health: Dict[str, BoardHealth] = {
            n: BoardHealth.HEALTHY for n in self._server_names}

        # Guest bookkeeping. ``guest_ledger`` is populated by the
        # vectorized churn engine (repro.fleet.churn); when set,
        # population stats come from it instead of ``guests``.
        self.guest_ledger = None
        self.guests: Dict[str, RegionGuest] = {}
        self._by_server: Dict[str, Dict[str, None]] = {
            n: {} for n in self._server_names}
        self._guest_ids = itertools.count(1)

        # Counters (all deterministic; the monitors read these).
        self.arrivals: Dict[str, int] = {t: 0 for t in TIERS}
        self.placed: Dict[str, int] = {t: 0 for t in TIERS}
        self.shed: Dict[Tuple[str, str], int] = {}
        self.capacity_rejections: Dict[str, int] = {t: 0 for t in TIERS}
        self.exits = 0
        self.migrations = 0
        self.double_migrations = 0
        self.drain_failures = 0
        self.placements_on_quarantined = 0
        self.placements_on_dead = 0
        self.injected: List[FaultSpec] = []
        self.detection_latencies_s: List[float] = []
        self.drain_latencies_s: List[float] = []
        self.remediation_latencies_s: List[float] = []
        self._fault_onset: Dict[str, float] = {}
        self._finalized = False

    # -- probes --------------------------------------------------------
    def _set_truth(self, name: str, up: Optional[bool] = None,
                   board: Optional[BoardHealth] = None) -> None:
        """Change what ``name``'s probe observes, and unsettle it."""
        if up is not None:
            self._server_up[name] = up
        if board is not None:
            self._board_health[name] = board
        self.health.unsettle(name)

    def _probe_ok(self, name: str) -> bool:
        """One fleet probe: power, board watchdogs, storage reachability."""
        return (self._server_up[name]
                and self._board_health[name] is BoardHealth.HEALTHY
                # Up links are symmetric, so one storage-rooted tree
                # per topology version answers every server's probe.
                and self.network.tables.reachable(STORAGE_NODE, name))

    def _probe_loop(self):
        health = self.health
        order = {name: i for i, name in enumerate(self._server_names)}
        swept_version = None
        while True:
            # A route change can cut any server off storage.
            version = self.network.topology_version
            if version != swept_version:
                swept_version = version
                for name in self._server_names:
                    health.unsettle(name)
            for name in sorted(health.unsettled(), key=order.__getitem__):
                board = self._board_health[name]
                if board is not BoardHealth.HEALTHY:
                    health.ingest_board_health(name, board)
                else:
                    health.report_probe(name, self._probe_ok(name))
            yield self.sim.timeout(self.spec.health.probe_interval_s)

    # -- churn ---------------------------------------------------------
    def start(self, probes: bool = True, arrivals: bool = True) -> None:
        """Spawn the probe sweep and the arrival process.

        The sweep wakes every ``probe_interval_s`` and probes, in server
        order, only the servers :meth:`FleetHealth.unsettled` names: the
        first sweep probes every server, later ones those whose record
        or probe inputs changed. A skipped server's record is HEALTHY
        with no misses and a passed last probe, and its power, board
        verdict and routes are what that probe saw (every change goes
        through :meth:`_set_truth` or bumps the fabric's topology
        version), so probing it would write nothing. No simulated time
        passes within a sweep and a probe changes only its own server's
        record, so the sweep is exact: records, transitions and audit
        match a sweep of every server.

        Scale shards pass ``probes=False, arrivals=False`` and drive
        churn through an engine from :mod:`repro.fleet.churn` instead:
        plan-based engines replace the default interleaved arrival
        loop.
        """
        if probes:
            self.sim.spawn(self._probe_loop(), name="region.probes")
        if arrivals:
            self.sim.spawn(self._arrival_loop(), name="region.arrivals")

    def _arrival_loop(self):
        s = self.spec
        rng = self.sim.streams.get(ARRIVAL_STREAM)
        cum = []
        acc = 0.0
        for tier, weight in s.tier_mix:
            acc += weight
            cum.append((tier, acc))
        n = 0
        while True:
            yield self.sim.timeout(
                float(rng.exponential(1.0 / s.arrival_rate_per_s)))
            pick = float(rng.uniform())
            tier = cum[-1][0]
            for candidate, edge in cum:
                if pick < edge:
                    tier = candidate
                    break
            lifetime = float(rng.exponential(s.mean_lifetime_s))
            self._arrive(n, tier, lifetime)
            n += 1

    def _arrive(self, n: int, tier: str, lifetime_s: float) -> None:
        self.arrivals[tier] += 1
        tenant = f"t{n % self.spec.n_tenants:03d}"
        try:
            self.admission.admit(tier, tenant=tenant)
        except AdmissionRejected as exc:
            key = (tier, exc.reason)
            self.shed[key] = self.shed.get(key, 0) + 1
            return
        try:
            placement = self.scheduler.place(self._itype)
        except CapacityError:
            self.capacity_rejections[tier] += 1
            return
        if self.scheduler.servers[placement.server].quarantined:
            # Must be impossible (first fit skips quarantined); the
            # QuarantinePlacementMonitor turns any count into a failure.
            self.placements_on_quarantined += 1
        guest = RegionGuest(
            guest_id=f"g-{next(self._guest_ids):05d}",
            tenant=tenant,
            tier=tier,
            server=placement.server,
            placement_id=placement.instance_id,
            placed_s=self.sim.now,
            lifetime_s=lifetime_s,
        )
        self.guests[guest.guest_id] = guest
        self._by_server[guest.server][guest.guest_id] = None
        self.placed[tier] += 1
        if not self._server_up[guest.server] or \
                self._board_health[guest.server] is not BoardHealth.HEALTHY:
            # Landed inside the detection window, before the probes
            # quarantined the dead server: the guest starts its life in
            # an outage and the drain will migrate it out.
            self.placements_on_dead += 1
            guest.state = "down"
            self.accounting.record_down(guest.guest_id, cause="placed_on_dead")
        self.sim.spawn(self._guest_life(guest),
                       name=f"region.life.{guest.guest_id}")

    def _guest_life(self, guest: RegionGuest):
        yield self.sim.timeout(guest.lifetime_s)
        if guest.state in ("running", "down"):
            self._end_guest(guest, "exited")
            self.exits += 1

    def _end_guest(self, guest: RegionGuest, final_state: str) -> None:
        if guest.state == "down":
            self.accounting.record_up(guest.guest_id, cause=final_state)
        guest.state = final_state
        guest.ended_s = self.sim.now
        self.scheduler.release(guest.placement_id)
        self._by_server[guest.server].pop(guest.guest_id, None)

    # -- fault delivery ------------------------------------------------
    def arm_plan(self, plan: FaultPlan) -> int:
        """Schedule every region fault in ``plan``; returns the count.

        Only region-scoped kinds are accepted (guest/fabric kinds need
        a live testbed — arm those through ``FaultInjector``). Targets
        are validated eagerly, all bad names reported in one error.
        """
        wrong_kind = sorted({
            f.kind for f in plan.schedule() if f.kind not in REGION_KINDS})
        if wrong_kind:
            raise ValueError(
                f"Region.arm_plan only delivers region kinds "
                f"{', '.join(REGION_KINDS)}; got {', '.join(wrong_kind)} "
                f"(arm those through repro.faults.FaultInjector)")

        def valid(spec: FaultSpec) -> bool:
            if spec.kind == "rack_power":
                return spec.target in self.rack_servers
            if spec.kind == "tor_down":
                return spec.target in self.network.tors
            return spec.target in self.scheduler.servers

        bad = sorted({f.target for f in plan.schedule() if not valid(f)})
        if bad:
            raise KeyError(
                f"region fault plan names unknown target(s) "
                f"{', '.join(repr(t) for t in bad)}; valid racks: "
                f"{', '.join(sorted(self.rack_servers))}; valid tors: "
                f"{', '.join(self.network.tors)}; valid servers: "
                f"{', '.join(self._server_names)}")
        for spec in plan.schedule():
            self.sim.spawn(self._deliver(spec),
                           name=f"region.fault.{spec.kind}@{spec.target}")
        return len(plan)

    def _deliver(self, spec: FaultSpec):
        if spec.at_s > self.sim.now:
            yield self.sim.timeout(spec.at_s - self.sim.now)
        self.injected.append(spec)
        self.accounting.record_fault(spec.kind, spec.target)
        if spec.kind == "rack_power":
            victims = self.rack_servers[spec.target]
            for name in victims:
                self._set_truth(name, up=False)
                self._fault_onset.setdefault(name, self.sim.now)
                self._mark_guests_down(name, cause="rack_power")
            yield self.sim.timeout(spec.duration_s)
            for name in victims:
                self._set_truth(name, up=True)
        elif spec.kind == "tor_down":
            rack = f"rack-{spec.target.split('-', 1)[1]}"
            for name in self.rack_servers[rack]:
                self._fault_onset.setdefault(name, self.sim.now)
                # Servers stay powered but lose storage reachability;
                # their guests are down until migrated off the rack.
                self._mark_guests_down(name, cause="tor_down")
            yield from self.network.crash_switch(spec.target, spec.duration_s)
        elif spec.kind == "correlated_board_hang":
            self._set_truth(spec.target, board=BoardHealth.SUSPECT)
            self._fault_onset.setdefault(spec.target, self.sim.now)
            self._mark_guests_down(spec.target, cause="board_hang")
            yield self.sim.timeout(spec.duration_s)
            self._set_truth(spec.target, board=BoardHealth.HEALTHY)
        else:  # unreachable: arm_plan filters kinds
            raise AssertionError(f"unhandled region kind {spec.kind!r}")

    def _mark_guests_down(self, server: str, cause: str) -> None:
        for gid in sorted(self._by_server[server]):
            guest = self.guests[gid]
            if guest.state == "running":
                guest.state = "down"
                self.accounting.record_down(gid, cause=cause)

    # -- remediation hooks ---------------------------------------------
    def _drain(self, server: str, ticket: RemediationTicket):
        """Migrate every guest off ``server``, premium tier first."""
        s = self.spec
        # Anything still running on a quarantined server is effectively
        # down (the server is leaving service); close the window now so
        # availability accounting sees the drain.
        self._mark_guests_down(server, cause="drain")
        ordered = sorted(
            self._by_server[server],
            key=lambda gid: (_TIER_RANK[self.guests[gid].tier], gid))
        deadline = self.sim.now + s.drain_timeout_s
        for gid in ordered:
            guest = self.guests[gid]
            if guest.state != "down":
                # Exited on its own between quarantine and this step;
                # it still belongs to the incident record.
                ticket.exited.append(gid)
                continue
            ticket.drained.append(gid)
            placement = None
            while True:
                try:
                    placement = self.scheduler.place(self._itype)
                    break
                except CapacityError:
                    if self.sim.now >= deadline:
                        break
                    yield self.sim.timeout(s.drain_retry_s)
            if placement is None:
                ticket.failed.append(gid)
                self.drain_failures += 1
                self._end_guest(guest, "failed")
                self.audit.record("remediation", "drain_failed", gid,
                                  ticket=ticket.ticket_id, server=server)
                continue
            yield self.sim.timeout(s.migration_s)
            if guest.state != "down":
                # Exited while the migration was in flight; hand the
                # reserved destination board back.
                self.scheduler.release(placement.instance_id)
                ticket.exited.append(gid)
                continue
            if gid in ticket.migrated:
                # Exactly-once breach — counted so the monitor fails.
                self.double_migrations += 1
            self.scheduler.release(guest.placement_id)
            self._by_server[guest.server].pop(gid, None)
            guest.server = placement.server
            guest.placement_id = placement.instance_id
            self._by_server[guest.server][gid] = None
            guest.state = "running"
            guest.migrations += 1
            self.migrations += 1
            ticket.migrated.append(gid)
            self.accounting.record_up(gid, cause="migrated")
            self.audit.record("remediation", "migrated", gid,
                              ticket=ticket.ticket_id, src=server,
                              dst=guest.server)

    def _ticket_closed(self, ticket: RemediationTicket) -> None:
        onset = self._fault_onset.pop(ticket.server, None)
        if onset is not None:
            self.detection_latencies_s.append(ticket.opened_s - onset)
        if ticket.drain_done_s is not None:
            self.drain_latencies_s.append(ticket.drain_done_s - ticket.opened_s)
        if ticket.remediation_s is not None:
            self.remediation_latencies_s.append(ticket.remediation_s)

    # -- teardown / reporting ------------------------------------------
    def finalize(self) -> int:
        """Close every open outage span; idempotent."""
        self._finalized = True
        return self.accounting.finalize()

    def tier_stats(self, tier: str) -> Dict[str, float]:
        """Availability and population stats over ``tier``'s guests."""
        now = self.sim.now
        if self.guest_ledger is not None:
            return self.guest_ledger.tier_stats(tier, now)
        total = downtime = 0.0
        n = 0
        for gid in sorted(self.guests):
            guest = self.guests[gid]
            if guest.tier != tier:
                continue
            window = guest.window_s(now)
            if window <= 0:
                continue
            n += 1
            total += window
            downtime += self.accounting.downtime(gid)
        availability = 1.0 - downtime / total if total > 0 else 1.0
        return {
            "guests": float(n),
            "guest_seconds": total,
            "downtime_s": downtime,
            "availability": availability,
        }

    def running_guests(self) -> int:
        if self.guest_ledger is not None:
            return self.guest_ledger.running_count()
        return sum(1 for g in self.guests.values()
                   if g.state in ("running", "down"))

    def report(self) -> Dict:
        """Deterministic end-of-run summary (sorted keys throughout)."""
        tickets = [t.summary() for t in self.pipeline.tickets]
        return {
            "spec": {
                "n_racks": self.spec.n_racks,
                "servers_per_rack": self.spec.servers_per_rack,
                "boards_per_server": self.spec.boards_per_server,
                "duration_s": self.spec.duration_s,
            },
            "arrivals": dict(sorted(self.arrivals.items())),
            "placed": dict(sorted(self.placed.items())),
            "shed": {f"{tier}:{reason}": n
                     for (tier, reason), n in sorted(self.shed.items())},
            "capacity_rejections": dict(
                sorted(self.capacity_rejections.items())),
            "exits": self.exits,
            "migrations": self.migrations,
            "double_migrations": self.double_migrations,
            "drain_failures": self.drain_failures,
            "placements_on_quarantined": self.placements_on_quarantined,
            "placements_on_dead": self.placements_on_dead,
            "faults": [
                {"kind": f.kind, "target": f.target, "at_s": f.at_s,
                 "duration_s": f.duration_s}
                for f in self.injected
            ],
            "tickets": tickets,
            "health_counts": self.health.counts(),
            "quarantines": self.health.quarantines,
            "readmissions": self.health.readmissions,
            "duplicate_detections": self.pipeline.duplicate_detections,
            "admission": self.admission.report(),
            "tiers": {tier: self.tier_stats(tier) for tier in TIERS},
            "audit_entries": len(self.audit),
            "audit_ok": self.audit.verify(),
        }
