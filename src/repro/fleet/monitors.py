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

Like every monitor they only read counters and dict views —
no RNG draws, no model mutation, no blocking — so installing them
never perturbs the event schedule they observe.
"""

from __future__ import annotations

from typing import Iterable

from repro.cloud.admission import TIERS
from repro.sim import InvariantMonitor

__all__ = [
    "QuarantinePlacementMonitor",
    "DrainExactlyOnceMonitor",
    "TierSheddingMonitor",
    "region_monitors",
]


class QuarantinePlacementMonitor(InvariantMonitor):
    """No placement may land on a quarantined server — ever."""

    name = "quarantine_placement"

    def __init__(self, region):
        self.region = region

    def observe(self, sim) -> Iterable[str]:
        count = self.region.placements_on_quarantined
        if count:
            yield (f"{count} placement(s) landed on quarantined servers")
        # Structural cross-check: the scheduler's quarantine set and the
        # health model's pipeline-owned states must agree.
        quarantined = set(self.region.scheduler.quarantined_servers())
        for name in sorted(self.region.scheduler.servers):
            state = self.region.health.state(name).value
            if name in quarantined and state == "healthy":
                yield (f"{name} is scheduler-quarantined but "
                       f"health-state healthy")
            if name not in quarantined and state in (
                    "quarantined", "draining", "repairing"):
                yield (f"{name} is health-state {state} but still in the "
                       f"placement pool")


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
