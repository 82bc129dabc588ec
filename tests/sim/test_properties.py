"""Property-based tests for the simulation kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, TokenBucket


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator(seed=0)
    fired = []
    for delay in delays:
        sim.timeout(delay).add_callback(lambda e: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    n_users=st.integers(min_value=1, max_value=30),
    service=st.floats(min_value=1e-6, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_resource_never_exceeds_capacity_and_serves_everyone(capacity, n_users, service):
    sim = Simulator(seed=0)
    resource = Resource(sim, capacity=capacity)
    in_service = [0]
    peak = [0]
    served = [0]

    def user(sim):
        req = resource.request()
        yield req
        in_service[0] += 1
        peak[0] = max(peak[0], in_service[0])
        try:
            yield sim.timeout(service)
        finally:
            in_service[0] -= 1
            resource.release()
        served[0] += 1

    for _ in range(n_users):
        sim.spawn(user(sim))
    sim.run()
    assert peak[0] <= capacity
    assert served[0] == n_users
    assert resource.available == capacity


@given(
    rate=st.floats(min_value=10.0, max_value=1e7),
    n=st.integers(min_value=1, max_value=200),
    amount=st.floats(min_value=0.5, max_value=64.0),
)
@settings(max_examples=40, deadline=None)
def test_token_bucket_never_exceeds_rate_plus_burst(rate, n, amount):
    sim = Simulator(seed=0)
    burst = amount * 2
    bucket = TokenBucket(sim, rate=rate, burst=burst)

    def consumer(sim):
        for _ in range(n):
            yield from bucket.consume(amount)
        return sim.now

    elapsed = sim.run_process(consumer(sim))
    consumed = n * amount
    # Total consumption can never outpace burst + rate * time.
    assert consumed <= burst + rate * elapsed + 1e-6 * rate + amount


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_named_streams_reproducible_across_instances(seed):
    a = Simulator(seed=seed).streams.get("stream").random(4)
    b = Simulator(seed=seed).streams.get("stream").random(4)
    assert list(a) == list(b)
