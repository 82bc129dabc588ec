"""Event-queue contract: the calendar queue pops in heap order.

The kernel's ordering contract is ascending ``(when, insertion
counter)`` with counters unique at push time. The property tests here
drive random schedules, including interleaved push/pop and the
peek-advance-then-earlier-push pattern that exercises the active-bucket
swap repair, through :class:`CalendarQueue` and a plain ``heapq``
oracle and require bit-identical pop sequences.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CalendarQueue, Simulator

#: Calendar configurations under test. The narrow bucket and tiny
#: horizon force bucket churn and overflow on the same schedules the
#: wide default absorbs silently.
QUEUES = {
    "calendar": CalendarQueue,
    "narrow": lambda: CalendarQueue(bucket_width_s=1e-6, horizon_buckets=8),
}
ALL_KINDS = sorted(QUEUES)


def new_queue(kind):
    return QUEUES[kind]()


class HeapOracle:
    """Reference ordering: one binary heap of ``(when, counter, event)``."""

    def __init__(self):
        self._heap = []

    def push(self, when, counter, event):
        heapq.heappush(self._heap, (when, counter, event))

    def pop(self):
        return heapq.heappop(self._heap)  # IndexError when empty

    def peek_when(self):
        return self._heap[0][0] if self._heap else float("inf")


def _drain(queue):
    out = []
    while True:
        try:
            out.append(queue.pop())
        except IndexError:
            return out


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestQueueBasics:
    def test_pops_in_when_then_counter_order(self, kind):
        queue = new_queue(kind)
        entries = [(3e-6, 0, "a"), (1e-6, 1, "b"), (3e-6, 2, "c"),
                   (0.0, 3, "d"), (1e-6, 4, "e")]
        for when, counter, event in entries:
            queue.push(when, counter, event)
        assert _drain(queue) == sorted(entries)

    def test_len_tracks_contents(self, kind):
        queue = new_queue(kind)
        assert len(queue) == 0
        queue.push(1e-6, 0, None)
        queue.push(2e-6, 1, None)
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0

    def test_peek_when_without_popping(self, kind):
        queue = new_queue(kind)
        assert queue.peek_when() == float("inf")
        queue.push(5e-6, 0, None)
        queue.push(2e-6, 1, None)
        assert queue.peek_when() == 2e-6
        assert len(queue) == 2

    def test_empty_pop_raises_without_counter_side_effects(self, kind):
        queue = new_queue(kind)
        queue.push(1e-6, 0, None)
        queue.pop()
        before = (queue.pushes, queue.pops, queue.len_max, queue.len_sum,
                  queue.overflows, len(queue))
        for _ in range(3):
            with pytest.raises(IndexError):
                queue.pop()
        after = (queue.pushes, queue.pops, queue.len_max, queue.len_sum,
                 queue.overflows, len(queue))
        assert after == before

    def test_traffic_and_depth_counters(self, kind):
        queue = new_queue(kind)
        for counter in range(4):
            queue.push(counter * 1e-6, counter, None)
        assert queue.pushes == 4
        assert queue.len_max == 4
        _drain(queue)
        assert queue.pops == 4
        # len_sum accumulates the pre-pop depth: 4 + 3 + 2 + 1.
        assert queue.len_sum == 10


class TestCalendarSpecifics:
    def test_far_future_entries_overflow(self):
        queue = CalendarQueue(bucket_width_s=1e-6, horizon_buckets=16)
        queue.push(1e-6, 0, "near")
        queue.push(1.0, 1, "far")  # 1e6 buckets ahead
        assert queue.overflows == 1
        assert [entry[2] for entry in _drain(queue)] == ["near", "far"]

    def test_overflow_merges_by_entry_order(self):
        queue = CalendarQueue(bucket_width_s=1e-6, horizon_buckets=4)
        queue.push(1.0, 0, "far")
        assert queue.peek_when() == 1.0
        # Refold then race the overflow head against near-term work.
        queue.push(0.5, 1, "near")
        assert [entry[2] for entry in _drain(queue)] == ["near", "far"]

    def test_earlier_push_after_peek_advance(self):
        # peek_when() advances the active tick past empty buckets; a
        # subsequent earlier push must still pop first (the _select swap).
        queue = CalendarQueue(bucket_width_s=1e-6)
        queue.push(100e-6, 0, "late")
        assert queue.peek_when() == 100e-6
        queue.push(3e-6, 1, "early")
        assert [entry[2] for entry in _drain(queue)] == ["early", "late"]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            CalendarQueue(bucket_width_s=0.0)
        with pytest.raises(ValueError):
            CalendarQueue(horizon_buckets=0)


# -- property: bit-identical pop sequences against the heap oracle ----

# A schedule is a list of operations: ("push", when) or ("pop",).
# Timestamps mix the dense near-monotonic case the calendar is tuned
# for with far-future outliers that exercise the overflow heap.
_whens = st.one_of(
    st.floats(min_value=0.0, max_value=200e-6, allow_nan=False,
              allow_infinity=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
              allow_infinity=False),
)
_ops = st.lists(
    st.one_of(st.tuples(st.just("push"), _whens),
              st.tuples(st.just("pop")),
              st.tuples(st.just("peek"))),
    max_size=200,
)


def _run_schedule(queue, ops):
    """Apply a schedule; returns the observation sequence."""
    counter = itertools.count()
    observed = []
    for op in ops:
        if op[0] == "push":
            queue.push(op[1], next(counter), None)
        elif op[0] == "peek":
            observed.append(("peek", queue.peek_when()))
        else:
            try:
                observed.append(("pop", queue.pop()[:2]))
            except IndexError:
                observed.append(("pop", "empty"))
    observed.append(("drain", [entry[:2] for entry in _drain(queue)]))
    return observed


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_property_identical_pop_order_heap_vs_calendar(ops):
    reference = _run_schedule(HeapOracle(), ops)
    for kind in ALL_KINDS:
        assert _run_schedule(new_queue(kind), ops) == reference


# -- batch operations (push_batch) --------------------------------------

def _counters(queue):
    return {name: getattr(queue, name)
            for name in ("pushes", "pops", "len_max", "len_sum",
                         "overflows")}


_batch_whens = st.lists(
    st.floats(min_value=0.0, max_value=1e-3,
              allow_nan=False, allow_infinity=False),
    max_size=120,
)


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=150, deadline=None)
@given(pre=_batch_whens, batch=_batch_whens)
def test_property_push_batch_equals_sequential_pushes(kind, pre, batch):
    """push_batch is observably one loop of push: order AND counters."""
    counter = itertools.count()
    pre_entries = [(when, next(counter), None) for when in pre]
    batch_entries = [(when, next(counter), None) for when in batch]

    sequential = new_queue(kind)
    batched = new_queue(kind)
    for entry in pre_entries:
        sequential.push(*entry)
        batched.push(*entry)
    for entry in batch_entries:
        sequential.push(*entry)
    batched.push_batch(batch_entries)

    assert _counters(batched) == _counters(sequential)
    assert _drain(batched) == _drain(sequential)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_push_batch_empty_is_noop(kind):
    queue = new_queue(kind)
    queue.push_batch([])
    assert len(queue) == 0
    assert _counters(queue)["pushes"] == 0


def test_schedule_batch_matches_sequential_schedules():
    """Simulator.schedule_batch fires callbacks in timestamp order."""

    def run(batch):
        sim = Simulator(seed=7)
        log = []
        whens = [3e-6, 1e-6, 2e-6, 1e-6, 5e-6]
        events = [sim.event() for _ in whens]
        for index, ev in enumerate(events):
            ev.callbacks = [
                lambda _, index=index: log.append((sim.now, index))]
        if batch:
            sim.schedule_batch(whens, events)
        else:
            for when, ev in zip(whens, events):
                sim._schedule_at(when, ev)
        sim.run()
        return log

    assert run(batch=True) == run(batch=False)


def test_schedule_batch_length_mismatch_raises():
    sim = Simulator(seed=0)
    with pytest.raises(ValueError):
        sim.schedule_batch([1e-6], [])
