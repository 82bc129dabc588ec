"""The three fleet monitors flag an injected fault at the next sample.

Each test runs a small region under a :class:`~repro.sim.MonitorSuite`,
injects one fault that bypasses the control plane (a direct write the
scheduler, the health model or the remediation pipeline never made),
and requires the exact message at the suite's next sample — and
nothing before it. A fresh region also shows the monitors only read:
sampling them creates no health record and unsettles no server.
"""

import pytest

from repro.cloud import ServerHealthState
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import Region, RegionSpec, region_monitors
from repro.sim import MonitorSuite, Simulator

PERIOD_S = 50e-3
SPEC = RegionSpec(n_racks=2, servers_per_rack=2, boards_per_server=4,
                  duration_s=4.0, arrival_rate_per_s=12.0,
                  mean_lifetime_s=1.0)


def _region(plan=None, seed=0):
    sim = Simulator(seed=seed)
    region = Region(sim, SPEC)
    suite = MonitorSuite(sim, region_monitors(region), period_s=PERIOD_S)
    suite.start()
    region.start()
    if plan is not None:
        region.arm_plan(plan)
    return sim, region, suite


def _next_sample(sim, suite, until_s):
    """Run to ``until_s``, then exactly one more sample; its violations."""
    sim.run(until=until_s)
    assert suite.ok, [str(v) for v in suite.violations]
    samples = suite.samples
    sim.run(until=until_s + PERIOD_S)
    assert suite.samples == samples + 1
    return [(v.monitor, v.message) for v in suite.violations]


def test_scheduler_quarantine_flag_flipped_directly():
    sim, region, suite = _region()
    sim.run(until=0.52)
    region.scheduler.servers["r1-s0"].quarantined = True
    assert _next_sample(sim, suite, 0.52) == [
        ("quarantine_placement",
         "r1-s0 is scheduler-quarantined but health-state healthy")]


def test_health_record_quarantined_directly():
    sim, region, suite = _region()
    sim.run(until=0.52)
    region.health._records["r0-s1"].state = ServerHealthState.QUARANTINED
    assert _next_sample(sim, suite, 0.52) == [
        ("quarantine_placement",
         "r0-s1 is health-state quarantined but still in the placement "
         "pool")]


def test_placement_on_quarantined_counted():
    sim, region, suite = _region()
    sim.run(until=0.52)
    region.placements_on_quarantined += 1
    assert _next_sample(sim, suite, 0.52) == [
        ("quarantine_placement",
         "1 placement(s) landed on quarantined servers")]


def test_guest_migrated_twice_in_one_ticket():
    plan = FaultPlan.of(FaultSpec(kind="rack_power", target="rack-0",
                                  at_s=0.5, duration_s=0.3))
    sim, region, suite = _region(plan, seed=2)
    sim.run(until=1.52)
    ticket = next(t for t in region.pipeline.tickets if t.migrated)
    assert ticket.closed
    ticket.migrated.append(ticket.migrated[0])
    assert _next_sample(sim, suite, 1.52) == [
        ("drain_exactly_once",
         f"{ticket.ticket_id}: a guest resolved more than once "
         f"(migrated/exited/failed overlap)")]


def test_premium_breaker_shed_counted():
    sim, region, suite = _region()
    sim.run(until=0.52)
    region.shed[("premium", "shed")] = 1
    assert _next_sample(sim, suite, 0.52) == [
        ("tier_shedding", "1 premium request(s) were breaker-shed")]


def test_sampling_a_fresh_region_reads_only():
    sim = Simulator(seed=0)
    region = Region(sim, SPEC)
    suite = MonitorSuite(sim, region_monitors(region), period_s=PERIOD_S)
    suite.sample()
    suite.finish()
    assert suite.ok, [str(v) for v in suite.violations]
    assert region.health._records == {}
    assert region.health.unsettled() == frozenset()
    # Never probed reads as healthy; an unknown name still raises.
    assert region.health.state("r0-s0") is ServerHealthState.HEALTHY
    assert region.health.last_probe_ok("r0-s0") is True
    assert region.health._records == {}
    with pytest.raises(KeyError, match="unknown server 'r9-s9'"):
        region.health.state("r9-s9")
    with pytest.raises(KeyError, match="unknown server 'r9-s9'"):
        region.health.last_probe_ok("r9-s9")
