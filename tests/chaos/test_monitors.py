"""Monitors must flag deliberately corrupted state — and only that."""

import pytest

from repro.chaos.monitors import (
    AvailabilityMonitor,
    ConservationMonitor,
    ExactlyOnceRingMonitor,
    QuiescenceMonitor,
    RegressionProbeMonitor,
    ShadowSyncMonitor,
)
from repro.faults import AvailabilityAccounting
from repro.faults.spec import FaultSpec
from repro.iobond.shadow import ShadowVring
from repro.sim import InvariantMonitor, MonitorSuite, Simulator
from repro.sim.resources import TokenBucket
from repro.virtio.vring import VirtQueue


@pytest.fixture
def sim():
    return Simulator(seed=5)


def _vq_with_traffic(n=3):
    vq = VirtQueue(size=8)
    heads = [vq.add_buffer([b"req"], [64]) for _ in range(n)]
    for head in heads:
        chain = vq.pop_avail()
        vq.push_used(chain.head, 4)
    return vq, heads


class TestExactlyOnceRingMonitor:
    def test_clean_ring_has_no_violations(self, sim):
        vq, _ = _vq_with_traffic()
        monitor = ExactlyOnceRingMonitor("g", vq)
        assert list(monitor.observe(sim)) == []
        assert list(monitor.observe(sim)) == []

    def test_double_delivery_flagged(self, sim):
        vq, heads = _vq_with_traffic()
        monitor = ExactlyOnceRingMonitor("g", vq)
        assert list(monitor.observe(sim)) == []
        # Forge a second used entry for an already-delivered head.
        vq.used_ring.append((heads[0], 4))
        vq.used_idx += 1
        messages = list(monitor.observe(sim))
        assert any("exactly-once" in m for m in messages)

    def test_cursor_rewind_flagged(self, sim):
        vq, _ = _vq_with_traffic()
        monitor = ExactlyOnceRingMonitor("g", vq)
        assert list(monitor.observe(sim)) == []
        vq.avail_ring.pop()
        vq.avail_idx -= 1
        messages = list(monitor.observe(sim))
        assert any("rewound" in m for m in messages)

    def test_head_outside_ring_flagged(self, sim):
        vq, _ = _vq_with_traffic()
        monitor = ExactlyOnceRingMonitor("g", vq)
        vq.used_ring.append((vq.size + 3, 0))
        vq.used_idx += 1
        vq.avail_ring.append(vq.size + 3)
        vq.avail_idx += 1
        messages = list(monitor.observe(sim))
        assert any("outside ring" in m for m in messages)


class _FakePort:
    def __init__(self, shadows):
        self.name = "blk"
        self.shadows = shadows


class TestShadowSyncMonitor:
    def test_clean_shadow_flow(self, sim):
        vq = VirtQueue(size=8)
        shadow = ShadowVring(vq, name="blk.q0")
        monitor = ShadowSyncMonitor(_FakePort({0: shadow}))
        vq.add_buffer([b"data"], [64])
        staged, _ = shadow.stage_from_guest()
        shadow.publish_staged(staged)
        assert list(monitor.observe(sim)) == []
        entry = shadow.backend_poll()
        shadow.backend_complete(entry.guest_head, b"ok")
        assert list(monitor.observe(sim)) == []
        shadow.flush_to_guest()
        assert list(monitor.observe(sim)) == []

    def test_lost_entry_breaks_conservation(self, sim):
        vq = VirtQueue(size=8)
        shadow = ShadowVring(vq, name="blk.q0")
        monitor = ShadowSyncMonitor(_FakePort({0: shadow}))
        vq.add_buffer([b"data"], [64])
        staged, _ = shadow.stage_from_guest()
        shadow.publish_staged(staged)
        shadow._entries.popleft()  # drop an entry on the floor
        messages = list(monitor.observe(sim))
        assert any("conservation broken" in m for m in messages)
        assert any("published but only" in m for m in messages)

    def test_forged_sync_counter_breaks_window(self, sim):
        vq = VirtQueue(size=8)
        shadow = ShadowVring(vq, name="blk.q0")
        monitor = ShadowSyncMonitor(_FakePort({0: shadow}))
        assert list(monitor.observe(sim)) == []
        shadow.synced_to_shadow += 1
        messages = list(monitor.observe(sim))
        assert any("sync window broken" in m for m in messages)


class TestConservationMonitor:
    def test_monotonic_counters_pass_then_rewind_fails(self, sim):
        state = {"bytes": 0}
        monitor = ConservationMonitor({"link": lambda: dict(state)})
        assert list(monitor.observe(sim)) == []
        state["bytes"] = 100
        assert list(monitor.observe(sim)) == []
        state["bytes"] = 50
        assert any("shrank" in m for m in monitor.observe(sim))

    def test_token_bucket_bounds(self, sim):
        bucket = TokenBucket(sim, rate=1000.0, burst=10.0)
        monitor = ConservationMonitor({}, {"iops": bucket})
        assert list(monitor.observe(sim)) == []
        bucket._tokens = bucket.burst * 2  # forged tokens
        assert any("outside" in m for m in monitor.observe(sim))

    def test_reading_tokens_does_not_refill(self, sim):
        bucket = TokenBucket(sim, rate=1000.0, burst=10.0)
        bucket._tokens = 3.0
        monitor = ConservationMonitor({}, {"iops": bucket})
        # Advance the clock so a .tokens read *would* refill the bucket.
        def sleeper():
            yield sim.timeout(1.0)

        sim.spawn(sleeper())
        sim.run(until=2.0)
        list(monitor.observe(sim))
        assert bucket._tokens == 3.0
        assert bucket._last_refill == 0.0


class TestAvailabilityMonitor:
    def test_open_span_at_end_flagged_until_finalized(self, sim):
        acct = AvailabilityAccounting(sim)
        monitor = AvailabilityMonitor(acct)

        def scenario():
            acct.record_down("g")
            yield sim.timeout(1.0)

        sim.run_process(scenario())
        assert list(monitor.observe(sim)) == []
        assert any("still open" in m for m in monitor.at_end(sim))
        acct.finalize()
        assert list(monitor.at_end(sim)) == []

    def test_shrinking_downtime_flagged(self, sim):
        acct = AvailabilityAccounting(sim)
        monitor = AvailabilityMonitor(acct)

        def scenario():
            acct.record_down("g")
            yield sim.timeout(2.0)
            acct.record_up("g")

        sim.run_process(scenario())
        assert list(monitor.observe(sim)) == []
        acct._target("g").down_spans.clear()  # history vanishes
        assert any("shrank" in m for m in monitor.observe(sim))


class _FakeLoad:
    def __init__(self, done=True):
        self.done = done
        self.records = [(0, 0.0, 1.0, 0)]
        self.n_requests = 1
        self.tracker = None


class TestQuiescenceMonitor:
    def test_finished_loads_and_clean_sim_pass(self, sim):
        monitor = QuiescenceMonitor({"g": _FakeLoad()})
        sim.run(until=1.0)
        assert list(monitor.at_end(sim)) == []

    def test_unfinished_load_flagged(self, sim):
        monitor = QuiescenceMonitor({"g": _FakeLoad(done=False)})
        assert any("never finished" in m for m in monitor.at_end(sim))

    def test_leaked_process_flagged_but_daemons_allowed(self, sim):
        def forever():
            while True:
                yield sim.timeout(1.0)

        sim.spawn(forever(), name="bmhv.g")      # allowed daemon
        sim.spawn(forever(), name="leaked.loop")  # a real leak
        sim.run(until=3.0)
        messages = list(QuiescenceMonitor({}).at_end(sim))
        assert any("leaked.loop" in m for m in messages)
        assert not any("bmhv.g" in m for m in messages)


class TestMonitorSuite:
    class _AlwaysFiring(InvariantMonitor):
        name = "noisy"

        def observe(self, sim):
            return ("boom",)

    def test_periodic_sampling_and_cap(self, sim):
        suite = MonitorSuite(sim, [self._AlwaysFiring()], period_s=0.1,
                             max_per_monitor=5)
        suite.start()
        sim.run(until=2.0)
        suite.finish()
        assert not suite.ok
        assert suite.samples > 5
        # Capped: 5 real entries plus one suppression marker.
        assert len(suite.violations) == 6
        assert "suppressed" in suite.violations[-1].message

    def test_violations_carry_time_and_monitor(self, sim):
        suite = MonitorSuite(sim, [self._AlwaysFiring()], period_s=0.1)
        suite.sample()
        violation = suite.violations[0]
        assert violation.monitor == "noisy"
        assert violation.at_s == 0.0
        assert "noisy" in str(violation)

    def test_double_start_rejected(self, sim):
        suite = MonitorSuite(sim, [])
        suite.start()
        with pytest.raises(RuntimeError, match="already started"):
            suite.start()


class _FakeInjector:
    def __init__(self, kinds):
        self.injected = [
            FaultSpec(kind=kind, target="vswitch", at_s=0.0)
            if kind == "backend_disconnect"
            else FaultSpec(kind=kind, target="g0", at_s=0.0)
            for kind in kinds
        ]


class TestRegressionProbe:
    def test_fires_once_on_dma_stall(self, sim):
        probe = RegressionProbeMonitor(_FakeInjector(["pcie_flap"]))
        assert list(probe.observe(sim)) == []
        probe.injector.injected.append(
            FaultSpec(kind="dma_stall", target="g0", at_s=0.0))
        assert len(list(probe.observe(sim))) == 1
        assert list(probe.observe(sim)) == []  # fires once
