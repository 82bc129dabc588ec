"""Unit tests for the simulator kernel."""

import gc
import weakref

import pytest

from repro.sim import Simulator, global_event_totals


@pytest.fixture
def sim():
    return Simulator(seed=0)


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_until_advances_clock_without_events(self, sim):
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_in_past_raises(self, sim):
        sim.run(until=2.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_events_execute_in_time_order(self, sim):
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.timeout(delay).add_callback(lambda e, d=delay: order.append(d))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_events_fifo(self, sim):
        order = []
        for tag in ("first", "second", "third"):
            sim.timeout(1.0).add_callback(lambda e, t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(7.0)
        assert sim.peek() == 7.0

    def test_peek_empty_heap_is_inf(self, sim):
        assert sim.peek() == float("inf")


class TestRunProcess:
    def test_returns_process_value(self, sim):
        def worker(sim):
            yield sim.timeout(1.0)
            return 7

        assert sim.run_process(worker(sim)) == 7

    def test_stops_at_completion_despite_daemons(self, sim):
        """A never-ending poll loop must not hang run_process."""

        def daemon(sim):
            while True:
                yield sim.timeout(1e-6)

        def worker(sim):
            yield sim.timeout(0.5)
            return "done"

        sim.spawn(daemon(sim))
        assert sim.run_process(worker(sim)) == "done"
        assert sim.now == pytest.approx(0.5, abs=1e-5)

    def test_raises_process_exception(self, sim):
        def failing(sim):
            yield sim.timeout(0.1)
            raise KeyError("missing")

        with pytest.raises(KeyError):
            sim.run_process(failing(sim))

    def test_timeout_expiry_raises_runtime_error(self, sim):
        def slow(sim):
            yield sim.timeout(100.0)

        with pytest.raises(RuntimeError, match="before the process completed"):
            sim.run_process(slow(sim), timeout=1.0)


class TestDeterminism:
    def test_same_seed_same_streams(self):
        a = Simulator(seed=42).streams.get("x").random(5)
        b = Simulator(seed=42).streams.get("x").random(5)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).streams.get("x").random(5)
        b = Simulator(seed=2).streams.get("x").random(5)
        assert list(a) != list(b)

    def test_streams_are_independent_by_name(self):
        sim = Simulator(seed=9)
        a = sim.streams.get("alpha").random(5)
        b = sim.streams.get("beta").random(5)
        assert list(a) != list(b)

    def test_stream_identity_is_cached(self):
        sim = Simulator(seed=9)
        assert sim.streams.get("s") is sim.streams.get("s")
        assert len(sim.streams) == 1


class TestStatsRegistry:
    def test_registry_does_not_keep_simulators_alive(self):
        """A collected simulator leaves its final counters behind.

        Queued events hold their simulator, so the registry entry must
        not hold the queue; the totals must not change on collection.
        """
        sim = Simulator(seed=0)

        def sleeper(sim):
            yield sim.timeout(10.0)

        sim.spawn(sleeper(sim))
        sim.run(until=1.0)
        ref = weakref.ref(sim)
        before = global_event_totals()
        del sim
        gc.collect()
        assert ref() is None
        assert global_event_totals() == before
