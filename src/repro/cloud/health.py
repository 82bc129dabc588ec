"""Fleet health model: server health states and seeded remediation.

The paper's control plane assumes every server it selects from is
healthy (Section 3.2); at region scale that assumption needs active
maintenance. This module adds the machinery (DESIGN.md §13):

* :class:`ServerHealthState` — the per-server state machine
  ``healthy -> suspect -> quarantined -> draining -> repairing ->
  healthy``, with only the legal transitions accepted;
* :class:`FleetHealth` — folds fleet-level probe results and per-board
  :class:`~repro.hypervisor.health.BoardHealth` verdicts (set by
  region faults) into those states, drives the scheduler's quarantine
  set, and mirrors server outages into availability accounting;
* :class:`RemediationPipeline` — a seeded detect → quarantine → drain
  → repair → readmit workflow with exactly-once semantics: one open
  :class:`RemediationTicket` per incident, duplicate detections
  absorbed, every step audited through :class:`~repro.cloud.audit.
  AuditLog`.

Determinism: nothing here draws from an RNG stream. Probe results are
inputs; repair time is fixed policy; every collection is iterated in
sorted order — so the whole remediation timeline is a pure function of
the probe/fault schedule.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.hypervisor.health import BoardHealth

__all__ = [
    "ServerHealthState",
    "HealthPolicy",
    "FleetHealth",
    "RemediationTicket",
    "RemediationPipeline",
    "HealthTransitionError",
]


class ServerHealthState(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    DRAINING = "draining"
    REPAIRING = "repairing"


# The remediation pipeline owns a server from QUARANTINED on; probes
# may move a server between HEALTHY/SUSPECT/QUARANTINED, but only the
# pipeline advances it through DRAINING/REPAIRING and back.
_LEGAL_TRANSITIONS = {
    (ServerHealthState.HEALTHY, ServerHealthState.SUSPECT),
    (ServerHealthState.SUSPECT, ServerHealthState.HEALTHY),
    (ServerHealthState.SUSPECT, ServerHealthState.QUARANTINED),
    (ServerHealthState.HEALTHY, ServerHealthState.QUARANTINED),
    (ServerHealthState.QUARANTINED, ServerHealthState.DRAINING),
    (ServerHealthState.DRAINING, ServerHealthState.REPAIRING),
    (ServerHealthState.REPAIRING, ServerHealthState.HEALTHY),
}

# States during which the remediation pipeline owns the server: probe
# results update the readmission gate but never change the state.
_PIPELINE_OWNED = frozenset({
    ServerHealthState.QUARANTINED,
    ServerHealthState.DRAINING,
    ServerHealthState.REPAIRING,
})


class HealthTransitionError(Exception):
    """An illegal health-state transition was requested."""


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds for probe-driven state changes and repair.

    ``quarantine_after_misses`` consecutive failed probes demote a
    server from SUSPECT to QUARANTINED (the first miss makes it
    SUSPECT), so detection latency is
    ``quarantine_after_misses * probe_interval_s`` in the worst case.
    """

    probe_interval_s: float = 5e-3
    quarantine_after_misses: int = 2
    repair_s: float = 0.25
    ready_poll_s: float = 5e-3   # re-check cadence while waiting to readmit

    def __post_init__(self):
        if self.probe_interval_s <= 0:
            raise ValueError(
                f"probe interval must be positive, got {self.probe_interval_s}")
        if self.quarantine_after_misses < 1:
            raise ValueError(
                f"need >= 1 miss to quarantine, got {self.quarantine_after_misses}")
        if self.repair_s < 0:
            raise ValueError(f"repair time must be >= 0, got {self.repair_s}")
        if self.ready_poll_s <= 0:
            raise ValueError(
                f"ready poll must be positive, got {self.ready_poll_s}")


@dataclass
class _ServerHealth:
    """Mutable per-server record inside :class:`FleetHealth`."""

    name: str
    state: ServerHealthState = ServerHealthState.HEALTHY
    consecutive_misses: int = 0
    last_probe_ok: bool = True
    incidents: int = 0           # times the server entered QUARANTINED


class FleetHealth:
    """Per-server health states driven by probes and board signals.

    Entering QUARANTINED removes the server from the scheduler pool and
    opens a down span in availability accounting; returning to HEALTHY
    readmits it and closes the span. Listeners registered with
    :meth:`add_quarantine_listener` fire on every quarantine — the
    remediation pipeline hooks in there.

    It also tracks which servers are *unsettled*: those whose next
    probe could change their record. A server is settled once a probe
    passes on its HEALTHY record — the record then holds zero misses
    and ``last_probe_ok`` True, so repeating that probe writes nothing
    new. Record creation, every state change, every miss and
    :meth:`unsettle` (the caller's signal that what a probe observes
    has changed) make it unsettled again, and each calls
    ``on_unsettle`` when set: a probe sweep parked on a settled fleet
    rings its doorbell there. Queries only read: a server never probed
    has no record and reads as HEALTHY with a passed last probe.
    """

    def __init__(self, sim, scheduler, policy: Optional[HealthPolicy] = None,
                 audit=None, accounting=None):
        self.sim = sim
        self.scheduler = scheduler
        self.policy = policy or HealthPolicy()
        self.audit = audit
        self.accounting = accounting
        self._records: Dict[str, _ServerHealth] = {}
        self._unsettled: Set[str] = set()
        self.on_unsettle: Optional[Callable[[], None]] = None
        self._listeners: List[Callable] = []
        self.quarantines = 0
        self.readmissions = 0
        self.probe_misses = 0

    # -- wiring --------------------------------------------------------
    def add_quarantine_listener(self, callback: Callable) -> None:
        """``callback(server, cause)`` fires on entry to QUARANTINED."""
        self._listeners.append(callback)

    def _check_known(self, name: str) -> None:
        if name not in self.scheduler.servers:
            known = ", ".join(sorted(self.scheduler.servers)) or "(none)"
            raise KeyError(f"unknown server {name!r}; servers: {known}")

    def _record(self, name: str) -> _ServerHealth:
        """``name``'s record for a write, created on first use."""
        record = self._records.get(name)
        if record is None:
            self._check_known(name)
            record = self._records[name] = _ServerHealth(name=name)
            self._unsettle(name)
        return record

    def _unsettle(self, name: str) -> None:
        self._unsettled.add(name)
        if self.on_unsettle is not None:
            self.on_unsettle()

    def unsettle(self, name: str) -> None:
        """Mark ``name`` for re-probing: what its probe sees changed."""
        self._check_known(name)
        self._unsettle(name)

    # -- queries -------------------------------------------------------
    def state(self, name: str) -> ServerHealthState:
        record = self._records.get(name)
        if record is None:
            self._check_known(name)
            return ServerHealthState.HEALTHY
        return record.state

    def last_probe_ok(self, name: str) -> bool:
        record = self._records.get(name)
        if record is None:
            self._check_known(name)
            return True
        return record.last_probe_ok

    def unsettled(self) -> FrozenSet[str]:
        """Servers whose next probe could change their record."""
        return frozenset(self._unsettled)

    def counts(self) -> Dict[str, int]:
        """Servers per state name (sorted keys; all states present)."""
        out = {state.value: 0 for state in ServerHealthState}
        for record in self._records.values():
            out[record.state.value] += 1
        # Servers never probed are implicitly healthy.
        out[ServerHealthState.HEALTHY.value] += (
            len(self.scheduler.servers) - len(self._records))
        return dict(sorted(out.items()))

    # -- state machine -------------------------------------------------
    def transition(self, name: str, to: ServerHealthState,
                   cause: str = "") -> ServerHealthState:
        """Move ``name`` to ``to``; raises on an illegal edge.

        Side effects: QUARANTINED entry removes the server from the
        scheduler pool, opens its outage span, and notifies listeners;
        HEALTHY entry (readmission) reverses both.
        """
        record = self._record(name)
        frm = record.state
        if frm is to:
            return to
        if (frm, to) not in _LEGAL_TRANSITIONS:
            raise HealthTransitionError(
                f"illegal health transition {frm.value} -> {to.value} "
                f"for {name!r}")
        record.state = to
        self._unsettle(name)
        if self.audit is not None:
            self.audit.record(
                "fleet-health", "health_transition", name,
                frm=frm.value, to=to.value, cause=cause)
        if to is ServerHealthState.QUARANTINED:
            record.incidents += 1
            self.quarantines += 1
            self.scheduler.quarantine(name)
            if self.accounting is not None:
                self.accounting.record_down(name, cause=cause or "quarantine")
            for listener in self._listeners:
                listener(name, cause)
        elif to is ServerHealthState.HEALTHY and frm in _PIPELINE_OWNED:
            self.readmissions += 1
            record.consecutive_misses = 0
            self.scheduler.readmit(name)
            if self.accounting is not None:
                self.accounting.record_up(name, cause="readmitted")
        return to

    # -- signal ingestion ----------------------------------------------
    def report_probe(self, name: str, ok: bool,
                     cause: str = "probe_miss") -> ServerHealthState:
        """Fold one fleet-probe result into the state machine.

        While the remediation pipeline owns the server the probe result
        only updates ``last_probe_ok`` (the readmission gate); HEALTHY/
        SUSPECT servers move through the miss-threshold machine.

        A pass on a HEALTHY record settles the server (see
        :meth:`unsettled`): repeating it is a no-op until something
        unsettles the server again, so a sweep may skip it. A miss
        unsettles it.
        """
        record = self._record(name)
        record.last_probe_ok = ok
        if record.state in _PIPELINE_OWNED:
            return record.state
        if ok:
            record.consecutive_misses = 0
            if record.state is ServerHealthState.SUSPECT:
                self.transition(name, ServerHealthState.HEALTHY,
                                cause="probe_recovered")
            else:
                self._unsettled.discard(name)
            return record.state
        self._unsettle(name)
        self.probe_misses += 1
        record.consecutive_misses += 1
        if record.state is ServerHealthState.HEALTHY:
            self.transition(name, ServerHealthState.SUSPECT, cause=cause)
        if record.consecutive_misses >= self.policy.quarantine_after_misses:
            self.transition(name, ServerHealthState.QUARANTINED, cause=cause)
        return record.state

    def ingest_board_health(self, name: str,
                            board_state: BoardHealth) -> ServerHealthState:
        """Fold a board's :class:`BoardHealth` verdict into the machine.

        A HEALTHY board counts as a passed probe; SUSPECT or RESET
        counts as a miss (the same threshold machinery applies, so one
        bad verdict makes the server SUSPECT and a persistent hang
        quarantines it).
        """
        return self.report_probe(
            name, board_state is BoardHealth.HEALTHY,
            cause=f"board_{board_state.value}")


@dataclass
class RemediationTicket:
    """One remediation incident, from detection to readmission."""

    ticket_id: str
    server: str
    cause: str
    opened_s: float
    drained: List[str] = field(default_factory=list)   # guests seen by drain
    migrated: List[str] = field(default_factory=list)  # moved to new servers
    exited: List[str] = field(default_factory=list)    # left during drain
    failed: List[str] = field(default_factory=list)    # no capacity to move
    drain_done_s: Optional[float] = None
    repaired_s: Optional[float] = None
    closed_s: Optional[float] = None

    @property
    def closed(self) -> bool:
        return self.closed_s is not None

    @property
    def remediation_s(self) -> Optional[float]:
        if self.closed_s is None:
            return None
        return self.closed_s - self.opened_s

    def summary(self) -> Dict:
        return {
            "ticket_id": self.ticket_id,
            "server": self.server,
            "cause": self.cause,
            "opened_s": self.opened_s,
            "drained": sorted(self.drained),
            "migrated": sorted(self.migrated),
            "exited": sorted(self.exited),
            "failed": sorted(self.failed),
            "drain_done_s": self.drain_done_s,
            "repaired_s": self.repaired_s,
            "closed_s": self.closed_s,
        }


class RemediationPipeline:
    """Detect → quarantine → drain → repair → readmit, exactly once.

    The pipeline registers itself as a quarantine listener on the
    :class:`FleetHealth` it serves. Each quarantine opens at most one
    ticket per incident: re-detections while a ticket is open are
    absorbed (counted in ``duplicate_detections``), so drain and repair
    run exactly once per incident no matter how many probes, watchdogs,
    and fault deliveries report the same dead server.

    ``drainer(server, ticket)`` is a caller-supplied generator that
    migrates or terminates the guests on ``server`` (the pipeline has
    no placement policy of its own); ``ready(server)`` gates
    readmission — the pipeline re-polls it every ``ready_poll_s`` until
    the server passes, so a repair finishing mid-outage (rack still
    dark) never readmits a dead server.
    """

    def __init__(self, sim, health: FleetHealth,
                 drainer: Optional[Callable] = None,
                 ready: Optional[Callable] = None,
                 audit=None,
                 on_close: Optional[Callable] = None):
        self.sim = sim
        self.health = health
        self.drainer = drainer
        self.ready = ready
        self.audit = audit if audit is not None else health.audit
        self.on_close = on_close
        self.tickets: List[RemediationTicket] = []
        self.duplicate_detections = 0
        self._open: Dict[str, RemediationTicket] = {}
        self._ids = itertools.count(1)
        health.add_quarantine_listener(self.handle_quarantine)

    @property
    def open_tickets(self) -> Tuple[RemediationTicket, ...]:
        return tuple(self._open[s] for s in sorted(self._open))

    def handle_quarantine(self, server: str,
                          cause: str) -> Optional[RemediationTicket]:
        """Quarantine listener: open a ticket unless one is already open."""
        if server in self._open:
            self.duplicate_detections += 1
            return None
        ticket = RemediationTicket(
            ticket_id=f"rem-{next(self._ids):04d}",
            server=server,
            cause=cause,
            opened_s=self.sim.now,
        )
        self._open[server] = ticket
        self.tickets.append(ticket)
        if self.audit is not None:
            self.audit.record("remediation", "ticket_open", server,
                              ticket=ticket.ticket_id, cause=cause)
        self.sim.spawn(self._remediate(server, ticket),
                       name=f"remediate.{ticket.ticket_id}")
        return ticket

    def _remediate(self, server: str, ticket: RemediationTicket):
        policy = self.health.policy
        self.health.transition(server, ServerHealthState.DRAINING,
                               cause=ticket.ticket_id)
        if self.drainer is not None:
            yield from self.drainer(server, ticket)
        ticket.drain_done_s = self.sim.now
        if self.audit is not None:
            self.audit.record(
                "remediation", "drain_done", server,
                ticket=ticket.ticket_id,
                migrated=len(ticket.migrated), exited=len(ticket.exited),
                failed=len(ticket.failed))
        self.health.transition(server, ServerHealthState.REPAIRING,
                               cause=ticket.ticket_id)
        if policy.repair_s > 0:
            yield self.sim.timeout(policy.repair_s)
        ticket.repaired_s = self.sim.now
        while self.ready is not None and not self.ready(server):
            yield self.sim.timeout(policy.ready_poll_s)
        ticket.closed_s = self.sim.now
        del self._open[server]
        self.health.transition(server, ServerHealthState.HEALTHY,
                               cause=ticket.ticket_id)
        if self.audit is not None:
            self.audit.record(
                "remediation", "ticket_close", server,
                ticket=ticket.ticket_id,
                remediation_s=ticket.remediation_s)
        if self.on_close is not None:
            self.on_close(ticket)
