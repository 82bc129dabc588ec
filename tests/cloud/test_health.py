"""Unit tests for the fleet health model and remediation pipeline."""

import pytest

from repro.cloud import Scheduler
from repro.cloud.audit import AuditLog
from repro.cloud.health import (
    FleetHealth,
    HealthPolicy,
    HealthTransitionError,
    RemediationPipeline,
    ServerHealthState,
)
from repro.faults.accounting import AvailabilityAccounting
from repro.hypervisor.health import BoardHealth
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=7)


@pytest.fixture
def scheduler():
    sched = Scheduler()
    for i in range(3):
        sched.add_bmhive_server(f"s{i}", board_slots=4)
    return sched


@pytest.fixture
def health(sim, scheduler):
    return FleetHealth(sim, scheduler,
                       policy=HealthPolicy(probe_interval_s=1e-3,
                                           quarantine_after_misses=2,
                                           repair_s=10e-3),
                       audit=AuditLog(sim))


class TestStateMachine:
    def test_starts_healthy(self, health):
        assert health.state("s0") is ServerHealthState.HEALTHY

    def test_unknown_server_rejected(self, health):
        with pytest.raises(KeyError, match="unknown server"):
            health.state("nope")

    def test_one_miss_makes_suspect(self, health):
        health.report_probe("s0", False)
        assert health.state("s0") is ServerHealthState.SUSPECT

    def test_recovery_before_threshold_returns_to_healthy(self, health):
        health.report_probe("s0", False)
        health.report_probe("s0", True)
        assert health.state("s0") is ServerHealthState.HEALTHY
        # The miss counter reset: two more misses are needed again.
        health.report_probe("s0", False)
        assert health.state("s0") is ServerHealthState.SUSPECT

    def test_threshold_misses_quarantine(self, health, scheduler):
        health.report_probe("s0", False)
        health.report_probe("s0", False)
        assert health.state("s0") is ServerHealthState.QUARANTINED
        assert scheduler.servers["s0"].quarantined

    def test_illegal_transition_rejected(self, health):
        with pytest.raises(HealthTransitionError, match="illegal"):
            health.transition("s0", ServerHealthState.REPAIRING)

    def test_board_health_signals_fold_in(self, health):
        health.ingest_board_health("s1", BoardHealth.SUSPECT)
        assert health.state("s1") is ServerHealthState.SUSPECT
        health.ingest_board_health("s1", BoardHealth.RESET)
        assert health.state("s1") is ServerHealthState.QUARANTINED

    def test_probes_do_not_move_pipeline_owned_states(self, health):
        health.report_probe("s0", False)
        health.report_probe("s0", False)
        assert health.state("s0") is ServerHealthState.QUARANTINED
        # A passing probe while quarantined only updates the gate.
        health.report_probe("s0", True)
        assert health.state("s0") is ServerHealthState.QUARANTINED
        assert health.last_probe_ok("s0")

    def test_counts_cover_unprobed_servers(self, health):
        health.report_probe("s0", False)
        counts = health.counts()
        assert counts["suspect"] == 1
        assert counts["healthy"] == 2

    def test_transitions_are_audited(self, health):
        health.report_probe("s2", False)
        health.report_probe("s2", False)
        entries = health.audit.entries(subject="s2")
        assert [e.details["to"] for e in entries] == [
            "suspect", "quarantined"]
        assert health.audit.verify()

    def test_quarantine_opens_outage_span(self, sim, scheduler):
        acct = AvailabilityAccounting(sim)
        health = FleetHealth(sim, scheduler, accounting=acct)
        health.report_probe("s0", False)
        health.report_probe("s0", False)
        sim.run_process(_wait(sim, 0.5))
        assert acct.downtime("s0") == pytest.approx(0.5)


def _wait(sim, delay):
    yield sim.timeout(delay)


class TestRemediationPipeline:
    def _pipeline(self, sim, health, drained, ready=None):
        def drainer(server, ticket):
            drained.append(server)
            ticket.drained.append("g-fake")
            ticket.migrated.append("g-fake")
            yield sim.timeout(1e-3)

        return RemediationPipeline(sim, health, drainer=drainer, ready=ready)

    def test_full_cycle_returns_server_to_pool(self, sim, scheduler, health):
        drained = []
        pipeline = self._pipeline(sim, health, drained)
        health.report_probe("s0", False)
        health.report_probe("s0", False)
        sim.run_process(_wait(sim, 1.0))
        assert drained == ["s0"]
        assert health.state("s0") is ServerHealthState.HEALTHY
        assert not scheduler.servers["s0"].quarantined
        ticket = pipeline.tickets[0]
        assert ticket.closed
        assert ticket.drain_done_s < ticket.repaired_s <= ticket.closed_s
        assert ticket.remediation_s > 0

    def test_duplicate_detections_absorbed(self, sim, scheduler, health):
        drained = []
        pipeline = self._pipeline(sim, health, drained)
        health.report_probe("s0", False)
        health.report_probe("s0", False)
        # More misses while the ticket is open: no second ticket.
        health.report_probe("s0", False)
        handled = pipeline.handle_quarantine("s0", "again")
        assert handled is None
        assert pipeline.duplicate_detections == 1
        sim.run_process(_wait(sim, 1.0))
        assert len(pipeline.tickets) == 1
        assert drained == ["s0"]

    def test_new_incident_after_close_opens_new_ticket(
            self, sim, scheduler, health):
        drained = []
        pipeline = self._pipeline(sim, health, drained)
        for _ in range(2):
            health.report_probe("s0", False)
            health.report_probe("s0", False)
            sim.run_process(_wait(sim, 1.0))
        assert len(pipeline.tickets) == 2
        assert all(t.closed for t in pipeline.tickets)
        assert pipeline.duplicate_detections == 0

    def test_ready_gate_delays_readmission(self, sim, scheduler, health):
        drained = []
        gate = {"open_after": 0.25}
        pipeline = self._pipeline(
            sim, health, drained,
            ready=lambda server: sim.now >= gate["open_after"])
        health.report_probe("s0", False)
        health.report_probe("s0", False)
        sim.run_process(_wait(sim, 1.0))
        ticket = pipeline.tickets[0]
        assert ticket.closed_s >= 0.25
        assert health.state("s0") is ServerHealthState.HEALTHY

    def test_pipeline_steps_are_audited(self, sim, scheduler, health):
        pipeline = self._pipeline(sim, health, [])
        health.report_probe("s1", False)
        health.report_probe("s1", False)
        sim.run_process(_wait(sim, 1.0))
        actions = [e.action for e in health.audit.entries(subject="s1")
                   if e.actor == "remediation"]
        assert actions == ["ticket_open", "drain_done", "ticket_close"]
        assert health.audit.verify()


class TestUnsettledSet:
    """Servers whose next probe could change their record."""

    def _settle(self, health, name):
        health.report_probe(name, True)
        assert name not in health.unsettled()

    def test_record_creation_unsettles(self, health):
        assert health.unsettled() == frozenset()
        # Queries only read; a write creates the record (here a
        # same-state transition, which creates it and changes nothing).
        health.state("s0")
        assert health.unsettled() == frozenset()
        health.transition("s0", ServerHealthState.HEALTHY)
        assert health.unsettled() == {"s0"}

    def test_clean_probe_on_healthy_record_settles(self, health):
        health.report_probe("s0", True)
        health.report_probe("s1", True)
        assert health.unsettled() == frozenset()

    def test_miss_unsettles(self, health):
        self._settle(health, "s0")
        health.report_probe("s0", False)
        assert "s0" in health.unsettled()

    def test_board_verdict_unsettles(self, health):
        self._settle(health, "s1")
        health.ingest_board_health("s1", BoardHealth.SUSPECT)
        assert "s1" in health.unsettled()

    def test_outside_transition_unsettles(self, health):
        self._settle(health, "s2")
        health.transition("s2", ServerHealthState.QUARANTINED,
                          cause="operator")
        assert "s2" in health.unsettled()

    def test_unsettle_marks_known_servers_only(self, health):
        health.unsettle("s0")
        assert health.unsettled() == {"s0"}
        with pytest.raises(KeyError, match="unknown server"):
            health.unsettle("nope")

    def test_suspect_recovery_settles_on_the_next_clean_probe(self, health):
        health.report_probe("s0", False)
        health.report_probe("s0", True)
        assert health.state("s0") is ServerHealthState.HEALTHY
        assert "s0" in health.unsettled()
        self._settle(health, "s0")

    def test_pipeline_owned_states_stay_unsettled(self, sim, health):
        def drainer(server, ticket):
            yield sim.timeout(1e-3)

        RemediationPipeline(sim, health, drainer=drainer)
        health.report_probe("s0", False)
        health.report_probe("s0", False)
        seen = []
        while health.state("s0") is not ServerHealthState.HEALTHY:
            health.report_probe("s0", True)
            seen.append(health.state("s0"))
            assert "s0" in health.unsettled()
            sim.run(until=sim.now + 2.5e-4)
        assert {ServerHealthState.QUARANTINED, ServerHealthState.DRAINING,
                ServerHealthState.REPAIRING} <= set(seen)
        # Readmitted but not yet probed clean: still unsettled.
        assert "s0" in health.unsettled()
        self._settle(health, "s0")

    def test_first_sweep_creates_every_record(self):
        from repro.fleet import Region, RegionSpec

        sim = Simulator(seed=0)
        region = Region(sim, RegionSpec(n_racks=2, servers_per_rack=2,
                                        boards_per_server=4))
        assert region.health._records == {}
        region.start(arrivals=False)
        sim.run(until=1e-3)
        records = region.health._records
        assert tuple(records) == region._server_names
        assert all(r.state is ServerHealthState.HEALTHY
                   and r.consecutive_misses == 0 and r.last_probe_ok
                   for r in records.values())
        assert region.health.unsettled() == frozenset()
