"""Invariant monitors for region-scale remediation (DESIGN.md §13).

Three read-only monitors ride the :class:`~repro.sim.MonitorSuite`
sampling loop during a region drill and assert the remediation contract
*while it runs*:

* :class:`QuarantinePlacementMonitor` — placement never selects a
  quarantined server;
* :class:`DrainExactlyOnceMonitor` — every drained guest is migrated,
  exited, or failed exactly once, and every ticket eventually closes;
* :class:`TierSheddingMonitor` — breaker shedding is tier-ordered and
  downward-closed, and premium is never shed.

Like every monitor they only read counters, dict views and health
states (:meth:`~repro.cloud.health.FleetHealth.state` creates no
record and unsettles no server) — no RNG draws, no model mutation, no
blocking — so installing them never perturbs the event schedule they
observe.
"""

from __future__ import annotations

from typing import Iterable

from repro.cloud.admission import TIERS
from repro.cloud.health import ServerHealthState
from repro.sim import InvariantMonitor

__all__ = [
    "QuarantinePlacementMonitor",
    "DrainExactlyOnceMonitor",
    "TierSheddingMonitor",
    "region_monitors",
]


_HEALTHY = ServerHealthState.HEALTHY
_PIPELINE_OWNED = frozenset({
    ServerHealthState.QUARANTINED,
    ServerHealthState.DRAINING,
    ServerHealthState.REPAIRING,
})


class QuarantinePlacementMonitor(InvariantMonitor):
    """No placement may land on a quarantined server — ever."""

    name = "quarantine_placement"

    def __init__(self, region):
        self.region = region

    def observe(self, sim) -> Iterable[str]:
        count = self.region.placements_on_quarantined
        if count:
            yield (f"{count} placement(s) landed on quarantined servers")
        # Structural cross-check: the scheduler's quarantine flags and
        # the health model's pipeline-owned states must agree. One
        # unsorted pass; sorting only when something disagrees.
        state = self.region.health.state
        servers = self.region.scheduler.servers
        disagree = [
            name for name, server in servers.items()
            if (state(name) is _HEALTHY if server.quarantined
                else state(name) in _PIPELINE_OWNED)]
        for name in sorted(disagree):
            if servers[name].quarantined:
                yield (f"{name} is scheduler-quarantined but "
                       f"health-state healthy")
            else:
                yield (f"{name} is health-state {state(name).value} but "
                       f"still in the placement pool")


class DrainExactlyOnceMonitor(InvariantMonitor):
    """Each drained guest resolves exactly once: migrate, exit, or fail."""

    name = "drain_exactly_once"

    def __init__(self, region):
        self.region = region

    def _ticket_breaches(self, ticket) -> Iterable[str]:
        tid = ticket.ticket_id
        if len(set(ticket.drained)) != len(ticket.drained):
            yield f"{tid}: a guest was drained twice"
        resolved = ticket.migrated + ticket.exited + ticket.failed
        if len(set(resolved)) != len(resolved):
            yield (f"{tid}: a guest resolved more than once "
                   f"(migrated/exited/failed overlap)")
        unresolved = set(ticket.drained) - set(resolved)
        if ticket.drain_done_s is not None and unresolved:
            yield (f"{tid}: drained guest(s) never resolved: "
                   f"{', '.join(sorted(unresolved))}")

    def observe(self, sim) -> Iterable[str]:
        if self.region.double_migrations:
            yield (f"{self.region.double_migrations} guest(s) migrated "
                   f"more than once for the same incident")
        for ticket in self.region.pipeline.tickets:
            yield from self._ticket_breaches(ticket)

    def at_end(self, sim) -> Iterable[str]:
        for ticket in self.region.pipeline.tickets:
            if not ticket.closed:
                yield (f"{ticket.ticket_id} ({ticket.server}) never closed "
                       f"— remediation did not converge")
        for name in sorted(self.region.scheduler.servers):
            state = self.region.health.state(name).value
            if state != "healthy":
                yield f"{name} ended the run {state}, not healthy"


class TierSheddingMonitor(InvariantMonitor):
    """Breaker shedding is downward-closed; premium is never shed."""

    name = "tier_shedding"

    def __init__(self, region):
        self.region = region

    def observe(self, sim) -> Iterable[str]:
        shed = self.region.admission.shed_tiers()
        if "premium" in shed:
            yield "circuit breaker is shedding premium"
        # Downward-closed: shedding a tier implies shedding every tier
        # below it in the TIERS order.
        shedding = False
        for tier in TIERS:
            if tier in shed:
                shedding = True
            elif shedding:
                yield (f"shedding is not downward-closed: "
                       f"{', '.join(shed)} shed but {tier} admitted")
        premium_shed = self.region.shed.get(("premium", "shed"), 0)
        if premium_shed:
            yield f"{premium_shed} premium request(s) were breaker-shed"

    def at_end(self, sim) -> Iterable[str]:
        standard = self.region.shed.get(("standard", "shed"), 0)
        best_effort = self.region.shed.get(("best_effort", "shed"), 0)
        if standard and not best_effort:
            yield ("standard requests were shed while best_effort "
                   "was never shed")


def region_monitors(region):
    """The standard monitor set for a region drill."""
    return [
        QuarantinePlacementMonitor(region),
        DrainExactlyOnceMonitor(region),
        TierSheddingMonitor(region),
    ]
