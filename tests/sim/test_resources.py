"""Unit tests for Resource and TokenBucket."""

import pytest

from repro.sim import Resource, Simulator, TokenBucket


@pytest.fixture
def sim():
    return Simulator(seed=0)


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grants_up_to_capacity(self, sim):
        resource = Resource(sim, capacity=2)
        first, second, third = (resource.request() for _ in range(3))
        assert first.triggered and second.triggered
        assert not third.triggered
        assert resource.queue_length == 1

    def test_release_wakes_fifo(self, sim):
        resource = Resource(sim, capacity=1)
        resource.request()
        waiter_a = resource.request()
        waiter_b = resource.request()
        resource.release()
        assert waiter_a.triggered and not waiter_b.triggered

    def test_release_without_request_raises(self, sim):
        with pytest.raises(RuntimeError):
            Resource(sim, capacity=1).release()

    def test_serializes_processes(self, sim):
        resource = Resource(sim, capacity=1)
        finish_times = []

        def user(sim):
            req = resource.request()
            yield req
            try:
                yield sim.timeout(1.0)
            finally:
                resource.release()
            finish_times.append(sim.now)

        for _ in range(3):
            sim.spawn(user(sim))
        sim.run()
        assert finish_times == [1.0, 2.0, 3.0]


class TestTokenBucket:
    def test_rate_validation(self, sim):
        with pytest.raises(ValueError):
            TokenBucket(sim, rate=0)

    def test_initial_burst_available(self, sim):
        bucket = TokenBucket(sim, rate=100.0, burst=10.0)
        assert bucket.try_consume(10.0)
        assert not bucket.try_consume(1.0)

    def test_refills_over_time(self, sim):
        bucket = TokenBucket(sim, rate=100.0, burst=10.0)
        bucket.try_consume(10.0)
        sim.run(until=0.05)  # 5 tokens accrue
        assert bucket.try_consume(5.0)
        assert not bucket.try_consume(1.0)

    def test_enforces_steady_rate(self, sim):
        bucket = TokenBucket(sim, rate=1000.0, burst=1.0)

        def consumer(sim):
            for _ in range(100):
                yield from bucket.consume(1.0)
            return sim.now

        elapsed = sim.run_process(consumer(sim))
        # 100 tokens at 1000/s ~ 0.1 s (minus the 1-token burst).
        assert elapsed == pytest.approx(0.099, rel=0.05)

    def test_no_infinite_loop_on_float_residue(self, sim):
        """Regression: rounding residues must not spin the event loop."""
        bucket = TokenBucket(sim, rate=4e6, burst=4e3)

        def consumer(sim):
            for _ in range(2000):
                yield from bucket.consume(32.0)
            return True

        assert sim.run_process(consumer(sim), timeout=10.0)

    def test_drain_empties_bucket(self, sim):
        bucket = TokenBucket(sim, rate=100.0, burst=50.0)
        drained = bucket.drain()
        assert drained == pytest.approx(50.0)
        assert not bucket.try_consume(1.0)

    def test_delay_for_amount(self, sim):
        bucket = TokenBucket(sim, rate=10.0, burst=1.0)
        bucket.try_consume(1.0)
        assert bucket.delay_for(5.0) == pytest.approx(0.5)
