"""Crash detection, backoff'd restart, state replay, and reconnect."""

import pytest

from repro.core import BmHiveServer
from repro.faults import (
    BackoffSpec,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RingBlkLoad,
    Supervisor,
    SupervisorSpec,
    reconnect_with_backoff,
)
from repro.sim import Simulator
from repro.virtio.reliability import RetryPolicy

# Deadlines must outlive the ~62 ms restart (detect + backoff + exec +
# restore); the default 10 ms / 3-retry policy would declare the
# in-flight request lost before the replacement hypervisor comes up.
OUTAGE_POLICY = RetryPolicy(timeout_s=20e-3, max_retries=5)


def _rig(seed=33, supervisor_spec=None):
    sim = Simulator(seed=seed)
    server = BmHiveServer(sim)
    guest = server.launch_guest(name="g0")
    supervisor = Supervisor(sim, spec=supervisor_spec)
    return sim, server, guest, supervisor


def _crash_plan(at_s):
    return FaultPlan.of(
        FaultSpec(kind="hypervisor_crash", target="g0", at_s=at_s))


class TestBackoffSpec:
    def test_delay_grows_and_caps(self):
        spec = BackoffSpec(base_s=1e-3, factor=2.0, max_s=3e-3,
                           jitter_frac=0.0)
        rng = Simulator(seed=1).streams.get("t")
        assert spec.delay(0, rng) == pytest.approx(1e-3)
        assert spec.delay(1, rng) == pytest.approx(2e-3)
        assert spec.delay(2, rng) == pytest.approx(3e-3)  # capped
        assert spec.delay(9, rng) == pytest.approx(3e-3)

    def test_jitter_is_bounded_and_seeded(self):
        spec = BackoffSpec(base_s=1e-3, jitter_frac=0.5)

        def draw(seed):
            rng = Simulator(seed=seed).streams.get("faults.supervisor.g0")
            return [spec.delay(i, rng) for i in range(4)]

        a, b = draw(7), draw(7)
        assert a == b  # same stream, same delays
        for i, d in enumerate(a):
            lo = min(spec.base_s * spec.factor ** i, spec.max_s)
            assert lo <= d <= lo * 1.5

    def test_budget_bounds_the_worst_case(self):
        spec = BackoffSpec(base_s=1e-3, factor=2.0, max_s=4e-3,
                           jitter_frac=0.1)
        # budget(3) = sum of the three worst-case (jittered) delays
        expected = sum(min(1e-3 * 2.0 ** i, 4e-3) * 1.1 for i in range(3))
        assert spec.budget_s(3) == pytest.approx(expected)


class TestSupervisorRestart:
    def test_crash_is_detected_and_hypervisor_replaced(self):
        sim, server, guest, supervisor = _rig()
        load = RingBlkLoad(sim, guest, server.storage, n_requests=4,
                           policy=OUTAGE_POLICY)
        load.install()
        supervisor.watch(guest)
        original = guest.hypervisor
        injector = FaultInjector(sim, _crash_plan(1e-3))
        injector.arm(server)
        sim.spawn(load.run())
        sim.run(until=0.2)

        assert original.crashed
        assert guest.hypervisor is not original
        assert guest.hypervisor.is_polling
        assert guest.hypervisor.bond is guest.bond
        assert len(supervisor.records) == 1
        rec = supervisor.records[0]
        assert not rec.gave_up
        assert rec.crashed_at_s == pytest.approx(1e-3)
        assert rec.restored_at_s > rec.crashed_at_s

    def test_mid_service_crash_replays_the_inflight_entry(self):
        sim, server, guest, supervisor = _rig()
        load = RingBlkLoad(sim, guest, server.storage, n_requests=4,
                           period_s=400e-6, policy=OUTAGE_POLICY)
        load.install()
        supervisor.watch(guest)
        # First request issues at t=0 and takes ~140 us through the
        # backend; crashing at 50 us kills it mid-service, leaving a
        # consumed-but-uncompleted chain in the shadow vring.
        injector = FaultInjector(sim, _crash_plan(50e-6))
        injector.arm(server)
        sim.spawn(load.run())
        sim.run(until=0.2)

        rec = supervisor.records[0]
        assert rec.replayed_entries == 1
        assert guest.bond.port("blk").shadows[0].replayed == 1
        # ... and the replay produced exactly one completion.
        assert len(load.records) == 4
        assert load.duplicate_completions == 0
        assert not load.failures

    def test_handlers_survive_the_restart(self):
        sim, server, guest, supervisor = _rig()
        load = RingBlkLoad(sim, guest, server.storage, n_requests=2)
        load.install()
        before = dict(guest.hypervisor.handlers())
        supervisor.watch(guest)
        FaultInjector(sim, _crash_plan(1e-3)).arm(server)
        sim.spawn(load.run())
        sim.run(until=0.2)
        assert dict(guest.hypervisor.handlers()).keys() == before.keys()

    def test_passthrough_restart_keeps_one_worker_per_queue(self):
        """The replacement comes back in the crashed process's layout."""
        from dataclasses import replace

        from repro.config.profile import HardwareProfile, QueueSpec

        n_queues = 3
        profile = replace(HardwareProfile.paper(), queues=QueueSpec(
            blk_queues=n_queues, backend_workers=n_queues, passthrough=True))
        sim = Simulator(seed=33)
        server = BmHiveServer(sim, profile=profile)
        guest = server.launch_guest(name="g0")
        supervisor = Supervisor(sim)
        loads = [RingBlkLoad(sim, guest, server.storage, n_requests=6,
                             offset_s=qi * 100e-6, policy=OUTAGE_POLICY,
                             queue_index=qi)
                 for qi in range(n_queues)]
        for load in loads:
            load.install()
        supervisor.watch(guest)
        original = guest.hypervisor
        FaultInjector(sim, _crash_plan(1e-3)).arm(server)
        for load in loads:
            sim.spawn(load.run())
        sim.run(until=0.2)

        assert original.crashed and len(supervisor.records) == 1
        replacement = guest.hypervisor
        assert replacement is not original
        assert replacement.passthrough
        assert replacement.spec == original.spec
        assert set(replacement.workers) == {"bmhv.g0.mailbox"} | {
            f"bmhv.g0.blk.q{qi}" for qi in range(n_queues)}
        assert all(replacement.queue_entries_handled[("blk", qi)] > 0
                   for qi in range(n_queues))
        for load in loads:
            assert sorted(i for i, _, _, _ in load.records) == list(range(6))
            assert load.duplicate_completions == 0
            assert not load.failures

    def test_exec_failures_consume_attempts_then_give_up(self):
        spec = SupervisorSpec(exec_failure_rate=1.0, max_attempts=2)
        sim, server, guest, supervisor = _rig(supervisor_spec=spec)
        guest.hypervisor.start()
        supervisor.watch(guest)
        FaultInjector(sim, _crash_plan(1e-3)).arm(server)
        original = guest.hypervisor
        sim.run(until=1.0)
        assert len(supervisor.records) == 1
        rec = supervisor.records[0]
        assert rec.gave_up
        assert rec.attempts == 2
        assert guest.hypervisor is original  # never replaced

    def test_double_watch_rejected(self):
        sim, server, guest, supervisor = _rig()
        supervisor.watch(guest)
        with pytest.raises(ValueError, match="already watching"):
            supervisor.watch(guest)

    def test_restart_is_seed_deterministic(self):
        def run_once():
            sim, server, guest, supervisor = _rig(seed=44)
            load = RingBlkLoad(sim, guest, server.storage, n_requests=8,
                               policy=OUTAGE_POLICY)
            load.install()
            supervisor.watch(guest)
            FaultInjector(sim, _crash_plan(1e-3)).arm(server)
            sim.spawn(load.run())
            sim.run(until=0.2)
            return supervisor.records, load.records, sim.now

        assert run_once() == run_once()


class TestReconnectWithBackoff:
    def test_reconnects_after_the_outage_window(self):
        sim = Simulator(seed=5)
        server = BmHiveServer(sim)
        server.storage.disconnect()
        attempts = sim.run_process(reconnect_with_backoff(
            sim, server.storage, until_s=5e-3))
        assert server.storage.connected
        assert attempts >= 1
        assert sim.now >= 5e-3

    def test_attempt_count_is_seeded_not_wall_clock(self):
        def run_once():
            sim = Simulator(seed=6)
            server = BmHiveServer(sim)
            server.vswitch.disconnect()
            n = sim.run_process(reconnect_with_backoff(
                sim, server.vswitch, until_s=8e-3,
                backoff=BackoffSpec(base_s=0.5e-3, jitter_frac=0.3)))
            return n, sim.now

        assert run_once() == run_once()
