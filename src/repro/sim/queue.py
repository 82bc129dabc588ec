"""The simulation kernel's event queue.

The kernel's ordering contract is exact: entries are ``(when, counter,
event)`` tuples and must pop in ascending ``(when, counter)`` order.
``counter`` values are unique (the simulator assigns them from a single
monotone counter at push time), so the ``event`` field never takes part
in a comparison. The property tests in ``tests/sim/test_queue.py``
drive random schedules through :class:`CalendarQueue` and a plain
``heapq`` oracle and require bit-identical pop sequences.

:class:`CalendarQueue` is a bucketed ("calendar") queue tuned for this
workload's dense, near-monotonic timestamps. Events land in fixed-width
time buckets (default one poll-grid microsecond times a small
multiple); each bucket is a tiny heap, so intra-bucket ordering is
cheap, and bucket selection is O(1) for the overwhelmingly common
"schedule within the current millisecond" case. Entries beyond the
bucket horizon (long timeouts: EFI boot delays, watchdog budgets) go to
an overflow heap and are counted in ``overflows`` — the observability
counter exported as ``bucket_overflows``.

The queue also keeps depth/traffic counters (``pushes``, ``pops``,
``len_max``, ``len_sum``, ``overflows``) that the simulator surfaces
through :class:`~repro.sim.core.EventStats`.

Batch traffic (DESIGN.md §14): homogeneous event floods — the
vectorized churn engine's per-batch wakeups — go through
``push_batch``. It is *observably identical* to the equivalent
sequence of ``push`` calls (same pop order, same counters; the
property tests check this on random schedules) but hoists attribute
lookups out of the per-entry loop.
"""

from __future__ import annotations

from heapq import heappop, heappush, heappushpop
from typing import Iterable, List, Tuple

__all__ = ["CalendarQueue"]

_INF = float("inf")

#: Queue entry layout: ``(when, insertion counter, event)``.
Entry = Tuple[float, int, object]


class CalendarQueue:
    """Bucketed event queue for dense, near-monotonic schedules.

    Time is cut into fixed-width buckets (``bucket_width_s`` wide); the
    bucket index of an entry is ``int(when / width)``. The queue keeps:

    * ``_cur`` — the active bucket (a small heap), covering the tick
      the last pop came from. Pushes into the active tick — the hot
      case for microsecond service chains — skip all bucket lookup.
    * ``_buckets``/``_ticks`` — future buckets keyed by tick, plus a
      min-heap of their tick indices for lazy advancement.
    * ``_overflow`` — entries scheduled beyond ``horizon`` buckets
      ahead (counted in ``overflows``). They are consulted by
      ``pop``/``peek_when`` via a single head comparison, so far-future
      events cost one comparison instead of thousands of empty buckets.

    Pop order is ascending ``(when, counter)``: within a bucket the
    per-bucket heap orders by ``(when, counter)``; across buckets the
    tick index is monotone in ``when``; the overflow head is merged by
    direct entry comparison.
    """

    #: Default bucket width: 4 poll-grid microseconds. Swept empirically
    #: on the figure experiments (queue depths 8-65 entries spread over
    #: a few microseconds): 4 µs keeps the per-bucket heaps at one or
    #: two compares while the active-tick hit rate stays high; both
    #: narrower (1 µs: bucket churn per event) and wider (64 µs: deeper
    #: per-bucket heaps, worse cache behavior) measure slower.
    DEFAULT_WIDTH_S = 4e-6
    #: Buckets ahead of the active tick before an entry overflows.
    DEFAULT_HORIZON = 4096

    __slots__ = (
        "width", "_inv_width", "horizon", "_cur", "_cur_tick", "_buckets",
        "_ticks", "_overflow", "_len",
        "pushes", "pops", "len_max", "len_sum", "overflows",
    )

    def __init__(self, bucket_width_s: float = DEFAULT_WIDTH_S,
                 horizon_buckets: int = DEFAULT_HORIZON):
        if bucket_width_s <= 0:
            raise ValueError(f"bucket width must be positive: {bucket_width_s}")
        if horizon_buckets < 1:
            raise ValueError(f"horizon must be >= 1 bucket: {horizon_buckets}")
        self.width = float(bucket_width_s)
        self._inv_width = 1.0 / self.width
        self.horizon = int(horizon_buckets)
        self._cur: List[Entry] = []
        self._cur_tick = 0
        self._buckets: dict = {}
        self._ticks: List[int] = []
        self._overflow: List[Entry] = []
        self._len = 0
        self.pushes = 0
        self.pops = 0
        self.len_max = 0
        self.len_sum = 0
        self.overflows = 0

    def __len__(self) -> int:
        return self._len

    def push(self, when: float, counter: int, event) -> None:
        tick = int(when * self._inv_width)
        entry = (when, counter, event)
        if tick == self._cur_tick:
            heappush(self._cur, entry)
        elif tick >= self._cur_tick + self.horizon:
            heappush(self._overflow, entry)
            self.overflows += 1
        else:
            bucket = self._buckets.get(tick)
            if bucket is None:
                self._buckets[tick] = bucket = []
                heappush(self._ticks, tick)
            heappush(bucket, entry)
        self._len += 1
        self.pushes += 1
        if self._len > self.len_max:
            self.len_max = self._len

    def _refold_overflow(self) -> None:
        """Fold the overflow heap back into buckets.

        Runs when only far-future work remains, so the horizon
        re-anchors at its earliest entry and the common path stays
        bucket-local.
        """
        overflow, self._overflow = self._overflow, []
        buckets = self._buckets
        ticks = self._ticks
        inv = self._inv_width
        for entry in overflow:
            tick = int(entry[0] * inv)
            bucket = buckets.get(tick)
            if bucket is None:
                buckets[tick] = bucket = []
                heappush(ticks, tick)
            heappush(bucket, entry)

    def _select(self) -> List[Entry]:
        """Return the bucket holding the earliest non-overflow entry.

        Normally that is the active bucket. Two repairs happen here:
        advancing to the next tick when the active bucket drains, and —
        the subtle case — swapping an *earlier* bucket in when a push
        landed before the active tick. That happens when ``peek_when``
        advanced the queue past empty buckets (e.g. ``run(until)``
        stopped early) and the caller then scheduled new near-term
        work; ordering would silently break without the swap.
        """
        cur = self._cur
        ticks = self._ticks
        if ticks:
            if not cur:
                tick = heappop(ticks)
                self._cur_tick = tick
                self._cur = cur = self._buckets.pop(tick)
            elif ticks[0] < self._cur_tick:
                self._buckets[self._cur_tick] = cur
                tick = heappushpop(ticks, self._cur_tick)
                self._cur_tick = tick
                self._cur = cur = self._buckets.pop(tick)
        elif not cur and self._overflow:
            self._refold_overflow()
            return self._select()
        return cur

    def pop(self) -> Entry:
        if not self._len:
            # Raise before touching any counter: the kernel's drain
            # loop pops until IndexError, and a failed pop must not
            # perturb the traffic/depth statistics.
            raise IndexError("pop from an empty event queue")
        self.len_sum += self._len
        self.pops += 1
        self._len -= 1
        cur = self._select()
        overflow = self._overflow
        if overflow and (not cur or overflow[0] < cur[0]):
            return heappop(overflow)
        return heappop(cur)

    def peek_when(self) -> float:
        cur = self._select()
        overflow = self._overflow
        if cur:
            when = cur[0][0]
            if overflow and overflow[0][0] < when:
                return overflow[0][0]
            return when
        return overflow[0][0] if overflow else _INF

    def push_batch(self, entries: Iterable[Entry]) -> None:
        """Push many entries; equivalent to ``push`` in a loop.

        One pass with the routing state hoisted into locals; counters
        are settled once at the end (``len_max`` only needs the final
        depth because pushes never shrink the queue).
        """
        count = 0
        inv = self._inv_width
        cur_tick = self._cur_tick
        limit = cur_tick + self.horizon
        cur = self._cur
        overflow = self._overflow
        buckets = self._buckets
        ticks = self._ticks
        for entry in entries:
            tick = int(entry[0] * inv)
            if tick == cur_tick:
                heappush(cur, entry)
            elif tick >= limit:
                heappush(overflow, entry)
                self.overflows += 1
            else:
                bucket = buckets.get(tick)
                if bucket is None:
                    buckets[tick] = bucket = []
                    heappush(ticks, tick)
                heappush(bucket, entry)
            count += 1
        self._len += count
        self.pushes += count
        if self._len > self.len_max:
            self.len_max = self._len
