"""Determinism gates for the closed-loop retrying blk workload.

These are the strongest guarantees in the faults subsystem:

* identical runs are bit-identical;
* constructing the full fault machinery with an **empty** plan is
  bit-identical to never constructing it (records *and* final clock);
* flipping doorbell idle-skip changes poll mechanics only — a crash
  scenario produces identical records, restarts, and clocks either way;
* without a supervisor the retry budget exhausts and requests are
  reported lost, never silently dropped.
"""

import pytest

from repro.core import BmHiveServer
from repro.faults import (
    AvailabilityAccounting,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RingBlkLoad,
    Supervisor,
)
from repro.sim import Simulator
from repro.sim.doorbell import set_idle_skip_default
from repro.virtio.reliability import RetryPolicy

OUTAGE_POLICY = RetryPolicy(timeout_s=20e-3, max_retries=5)


def _bare_run(seed, n_requests=12):
    """Workload only: no injector, no supervisor, no accounting."""
    sim = Simulator(seed=seed)
    server = BmHiveServer(sim)
    guest = server.launch_guest(name="g0")
    load = RingBlkLoad(sim, guest, server.storage, n_requests=n_requests)
    load.install()
    records = sim.run_process(load.run())
    return records, sim.now


def _machinery_run(seed, plan, n_requests=12, policy=None, until=0.2):
    """Full stack: injector + supervisor + accounting, under ``plan``."""
    sim = Simulator(seed=seed)
    server = BmHiveServer(sim)
    guest = server.launch_guest(name="g0")
    accounting = AvailabilityAccounting(sim)
    supervisor = Supervisor(sim, accounting=accounting)
    load = RingBlkLoad(sim, guest, server.storage, n_requests=n_requests,
                       policy=policy)
    load.install()
    supervisor.watch(guest)
    FaultInjector(sim, plan, accounting=accounting).arm(server)
    sim.spawn(load.run())
    sim.run(until=until)
    return load, supervisor, sim


class TestExactlyOnce:
    def test_fault_free_run_completes_everything_once(self):
        records, _ = _bare_run(seed=17)
        assert [i for i, _, _, _ in records] == list(range(12))
        assert all(attempts == 0 for _, _, _, attempts in records)

    def test_crash_run_completes_everything_once(self):
        plan = FaultPlan.of(FaultSpec(kind="hypervisor_crash", target="g0",
                                      at_s=850e-6))
        load, supervisor, _ = _machinery_run(17, plan, policy=OUTAGE_POLICY)
        assert sorted(i for i, _, _, _ in load.records) == list(range(12))
        assert load.duplicate_completions == 0
        assert not load.failures
        assert load.retries > 0
        assert len(supervisor.records) == 1


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self):
        assert _bare_run(seed=23) == _bare_run(seed=23)

    def test_empty_plan_machinery_is_bit_identical_to_no_machinery(self):
        bare_records, bare_clock = _bare_run(seed=23)
        load, supervisor, sim = _machinery_run(23, FaultPlan.none())
        assert tuple(load.records) == tuple(bare_records)
        assert supervisor.records == []
        # The clocks differ only because _machinery_run uses run(until);
        # completion times are what must match, and they do exactly.
        assert load.records[-1][2] == bare_records[-1][2]
        assert bare_clock == bare_records[-1][2]

    def test_crash_run_is_bit_identical_across_repeats(self):
        plan = FaultPlan.of(FaultSpec(kind="hypervisor_crash", target="g0",
                                      at_s=850e-6))

        def once():
            load, supervisor, sim = _machinery_run(
                29, plan, policy=OUTAGE_POLICY)
            return (tuple(load.records), load.retries,
                    tuple(supervisor.records), sim.now)

        assert once() == once()


class TestIdleSkipEquivalence:
    """Idle-skip must change event counts, never results."""

    def _crash_run(self, idle_skip):
        prior = set_idle_skip_default(idle_skip)
        try:
            plan = FaultPlan.of(FaultSpec(kind="hypervisor_crash",
                                          target="g0", at_s=850e-6))
            load, supervisor, sim = _machinery_run(
                31, plan, n_requests=16, policy=OUTAGE_POLICY, until=0.1)
            return (tuple(load.records), load.retries,
                    tuple(supervisor.records), sim.now,
                    sim.stats.idle_poll_events)
        finally:
            set_idle_skip_default(prior)

    def test_results_match_event_counts_differ(self):
        *parked, parked_idle = self._crash_run(True)
        *polled, polled_idle = self._crash_run(False)
        assert parked == polled
        # The parked run skipped the idle polls the busy run burned.
        assert parked_idle < polled_idle


class TestRetryExhaustion:
    def test_unsupervised_crash_reports_lost_requests(self):
        sim = Simulator(seed=37)
        server = BmHiveServer(sim)
        guest = server.launch_guest(name="g0")
        load = RingBlkLoad(sim, guest, server.storage, n_requests=3,
                           policy=RetryPolicy(timeout_s=2e-3, max_retries=0))
        load.install()
        FaultInjector(sim, FaultPlan.of(
            FaultSpec(kind="hypervisor_crash", target="g0", at_s=100e-6),
        )).arm(server)
        sim.spawn(load.run())
        sim.run(until=0.1)
        assert load.done
        # Nobody restarted the hypervisor: every request is reported
        # lost (and none double-counted as completed).
        assert load.failures == [0, 1, 2]
        assert load.records == []
