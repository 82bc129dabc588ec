"""Tests for the kernel fast lane, EventStats, and the doorbell.

The fast lane (``Event._waiter`` + direct dispatch in the run loops)
and the doorbell idle-skip are pure performance features: every
observable behavior must be identical to the generic-callback
reference kernel (:mod:`tests.sim.reference_kernel`). The hypothesis
test at the bottom drives a random mix of timeouts and doorbell
park/ring traffic through both kernels and requires bit-identical
traces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Doorbell, Simulator, set_idle_skip_default
from tests.sim.reference_kernel import ReferenceSimulator


@pytest.fixture
def sim():
    return Simulator(seed=0)


class TestEventStats:
    def test_timeout_rides_the_fast_lane(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)

        sim.spawn(proc(sim))
        sim.run()
        # Start event + two timeouts, all single-waiter.
        assert sim.stats.events_popped == 3
        assert sim.stats.fast_path_hits == 3

    def test_shared_event_uses_generic_path(self, sim):
        gate = sim.event()

        def waiter(sim):
            yield gate

        sim.spawn(waiter(sim))
        sim.spawn(waiter(sim))

        def trigger(sim):
            yield sim.timeout(1.0)
            gate.succeed()

        sim.spawn(trigger(sim))
        sim.run()
        # The gate has two subscribers: it must not be a fast-path hit.
        assert sim.stats.events_popped > sim.stats.fast_path_hits

    def test_slow_kernel_never_hits_fast_path(self):
        sim = ReferenceSimulator(seed=0)

        def proc(sim):
            yield sim.timeout(1.0)

        sim.spawn(proc(sim))
        sim.run()
        assert sim.stats.fast_path_hits == 0
        assert sim.stats.events_popped > 0

    def test_as_dict_round_trips(self, sim):
        d = sim.stats.as_dict()
        assert set(d) == {
            "events_popped", "fast_path_hits", "idle_poll_events",
            "doorbell_parks", "doorbell_rings", "idle_polls_skipped",
            "events_pushed", "queue_len_max", "queue_len_sum",
            "bucket_overflows",
        }

    def test_queue_depth_counters_track_traffic(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)

        sim.spawn(proc(sim))
        sim.run()
        d = sim.stats.as_dict()
        assert d["events_pushed"] == d["events_popped"] == 3
        assert d["queue_len_max"] >= 1
        assert d["queue_len_sum"] >= d["events_popped"]


class TestFastLaneSemantics:
    def test_second_subscriber_demotes_the_waiter_in_order(self, sim):
        order = []
        timeout = None

        def proc(sim):
            nonlocal timeout
            timeout = sim.timeout(1.0)
            yield timeout
            order.append("process")

        sim.spawn(proc(sim))
        sim.run(until=0.5)  # let the process claim the fast lane
        timeout.add_callback(lambda e: order.append("callback"))
        sim.run()
        # The process subscribed first; migration must keep FIFO order.
        assert order == ["process", "callback"]

    def test_unjoined_process_completes_without_an_event(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return 42

        p = sim.spawn(proc(sim))
        sim.run()
        assert p.processed
        assert p.value == 42

    def test_late_join_of_finished_process_resumes_inline(self, sim):
        def child(sim):
            yield sim.timeout(1.0)
            return "done"

        p = sim.spawn(child(sim))
        results = []

        def joiner(sim):
            yield sim.timeout(5.0)
            value = yield p
            results.append((sim.now, value))

        sim.spawn(joiner(sim))
        sim.run()
        assert results == [(5.0, "done")]


class TestRunProcess:
    def test_deadline_advances_clock_to_timeout(self, sim):
        def forever(sim):
            while True:
                yield sim.timeout(1.0)

        with pytest.raises(RuntimeError, match="hit timeout=3.5"):
            sim.run_process(forever(sim), timeout=3.5)
        # Mirrors run(until): the clock lands exactly on the deadline.
        assert sim.now == 3.5

    def test_drained_message_distinguishes_from_deadline(self, sim):
        def waits_forever(sim):
            yield sim.event()  # never triggered

        with pytest.raises(RuntimeError, match="drained"):
            sim.run_process(waits_forever(sim))

    def test_both_messages_share_the_stable_suffix(self, sim):
        # Callers match on this substring; keep it in both variants.
        def forever(sim):
            while True:
                yield sim.timeout(1.0)

        with pytest.raises(RuntimeError, match="before the process completed"):
            sim.run_process(forever(sim), timeout=1.0)


class TestDoorbell:
    def _poll_loop(self, sim, bell, work, log):
        while True:
            if work:
                log.append((sim.now, work.pop(0)))
                continue
            yield bell.park()

    def test_wake_time_matches_busy_poll_grid_bitwise(self):
        # The busy-poll grid is a *chain* of float additions; the
        # doorbell must land on exactly the same ticks.
        interval = 1e-6
        ring_at = 17.3e-6
        results = {}
        for enabled in (True, False):
            sim = Simulator(seed=0)
            bell = Doorbell(sim, interval, enabled=enabled)
            work, log = [], []
            sim.spawn(self._poll_loop(sim, bell, work, log))

            def producer(sim):
                yield sim.timeout(ring_at)
                work.append("item")
                bell.ring()

            sim.spawn(producer(sim))
            sim.run(until=1e-3)
            results[enabled] = log
        assert results[True] == results[False]
        assert len(results[True]) == 1

    def test_skipped_polls_are_counted(self, sim):
        bell = Doorbell(sim, 1e-6, enabled=True)
        work, log = [], []
        sim.spawn(self._poll_loop(sim, bell, work, log))

        def producer(sim):
            yield sim.timeout(100e-6)
            work.append("x")
            bell.ring()

        sim.spawn(producer(sim))
        sim.run(until=1e-3)
        assert sim.stats.doorbell_parks >= 1
        assert sim.stats.doorbell_rings == 1
        # ~99 idle ticks between t=0 and the ring were never scheduled.
        assert sim.stats.idle_polls_skipped > 90

    @pytest.mark.parametrize("enabled, deadline_ticks, wake_ticks", [
        # Idle-skip off: the busy-poll spin, one interval, deadline or not.
        (False, None, 1),
        (False, 2.5, 1),
        # Idle-skip on: a parked event nothing fires without a ring...
        (True, None, None),
        # ...or, with a deadline, the first grid tick at or after it.
        (True, 2.5, 3),
        (True, 2, 2),
    ])
    def test_park_without_ring(self, sim, enabled, deadline_ticks,
                               wake_ticks):
        interval = 1e-6
        t0 = 0.3e-6
        bell = Doorbell(sim, interval, enabled=enabled)

        def grid(ticks):
            # The busy-poll grid: chained additions from the park time.
            tick = t0
            for _ in range(int(ticks)):
                tick += interval
            return tick + (ticks % 1) * interval

        woke = []

        def loop(sim):
            yield sim.timeout(t0)
            deadline = None if deadline_ticks is None else grid(deadline_ticks)
            yield bell.park(deadline)
            bell.cancel()
            woke.append(sim.now)

        sim.spawn(loop(sim))
        sim.run(until=1e-3)
        assert woke == ([] if wake_ticks is None else [grid(wake_ticks)])
        assert sim.stats.idle_poll_events == (0 if enabled else 1)
        assert sim.stats.doorbell_parks == (1 if enabled else 0)

    def test_ring_without_park_is_noop(self, sim):
        bell = Doorbell(sim, 1e-6)
        bell.ring()
        assert sim.peek() == float("inf")

    def test_cancel_forgets_the_parked_event(self, sim):
        bell = Doorbell(sim, 1e-6)
        event = bell.park()
        bell.cancel()
        bell.ring()
        assert not event.triggered
        assert sim.peek() == float("inf")

    def test_double_ring_schedules_once(self, sim):
        bell = Doorbell(sim, 1e-6)
        bell.park()
        bell.ring()
        bell.ring()
        assert len(sim._queue) == 1

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            Doorbell(sim, 0.0)

    def test_module_default_toggles_new_doorbells(self, sim):
        old = set_idle_skip_default(False)
        try:
            assert Doorbell(sim, 1e-6).enabled is False
            set_idle_skip_default(True)
            assert Doorbell(sim, 1e-6).enabled is True
        finally:
            set_idle_skip_default(old)


# ---------------------------------------------------------------------------
# Property: fast kernel == reference kernel, bit for bit.
# ---------------------------------------------------------------------------
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"),
                  st.floats(min_value=1e-9, max_value=1e-3)),
        st.tuples(st.just("park"), st.just(0.0)),
    ),
    min_size=1,
    max_size=8,
)


def _run_mix(sim_cls, plans, ring_delays):
    """One scenario: workers mixing timeouts and doorbell parks, plus
    producers ringing the workers' doorbells at random times. Returns
    the full resume trace (time, worker, op index)."""
    sim = sim_cls(seed=0)
    trace = []
    bells = [Doorbell(sim, 1e-6, enabled=True) for _ in plans]

    def worker(sim, wid, plan):
        for i, (kind, value) in enumerate(plan):
            if kind == "timeout":
                yield sim.timeout(value)
            else:
                yield bells[wid].park()
            trace.append((sim.now, wid, i))

    def ringer(sim, delay, target):
        yield sim.timeout(delay)
        bells[target].ring()
        trace.append((sim.now, "ring", target))

    for wid, plan in enumerate(plans):
        sim.spawn(worker(sim, wid, plan))
    for i, delay in enumerate(ring_delays):
        sim.spawn(ringer(sim, delay, i % len(plans)))
    sim.run(until=1.0)
    return trace, sim.now


@given(
    plans=st.lists(_OPS, min_size=1, max_size=4),
    ring_delays=st.lists(
        st.floats(min_value=1e-9, max_value=2e-3), min_size=0, max_size=12
    ),
)
@settings(max_examples=80, deadline=None)
def test_fast_kernel_matches_reference_kernel(plans, ring_delays):
    fast = _run_mix(Simulator, plans, ring_delays)
    slow = _run_mix(ReferenceSimulator, plans, ring_delays)
    assert fast == slow
