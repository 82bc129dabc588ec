"""Doorbell idle-skip for poll-mode (PMD) service loops.

Every PMD loop in this reproduction — the bm-hypervisor's dedicated
polling thread, the vhost-blk service, the firmware's used-ring poll —
models real hardware that spins even when idle. Simulating each idle
spin as a heap event is what made the DES kernel the bottleneck: a
loop with a 1 µs cadence injects a million no-op events per simulated
second per loop.

A :class:`Doorbell` removes those events without changing any
observable timing. When a loop finds nothing to do it *parks* on the
doorbell instead of scheduling its next spin; a producer (mailbox
post, shadow-vring publish, vring kick/used push) *rings* it, and the
wakeup is scheduled at the exact simulated time the busy-poll loop
would next have observed the work.

Quantization
------------
A busy-poll loop that goes idle at time ``t0`` wakes at ``t0+i``,
``((t0+i)+i)``, ... where ``i`` is its poll interval: the grid is a
chain of float additions, and ``t0 + k*i`` rounds differently. Work
posted at time ``w`` is picked up at the first grid tick strictly after
``w``: at an exact tie the polling thread is assumed to have checked
just before the producer posted, the conservative reading of that race
(and, for chains of short producer timeouts, the one the event heap's
FIFO tie-break produces). Work queued long before it becomes visible —
a fault timer armed in advance — runs ahead of the loop's tick event
under that same tie-break; ``ring(posted_s=...)`` says so, and such
work landing exactly on a tick is picked up on that tick.

The doorbell lands on that chain's ticks bit for bit without replaying
it one addition per skipped tick (:func:`_grid_tick`). Inside one
binade, where the ulp ``u`` of the tick is fixed, ``fl(t + i)`` is
``t + d`` for one constant ``d``, the interval rounded to a multiple of
``u``, unless ``i mod u`` is exactly ``u/2``. At such a tie, rounding
goes to the even multiple of ``u``, so once the tick is an even
multiple ``d`` is constant again. A run of ``k`` additions is therefore
the exact product ``t + k*d``, and the cost is O(binades crossed), not
O(ticks). The chained replay is kept as the test reference
(``tests/sim/reference_grid.py``). An interval of at most half an ulp
of the tick cannot advance the grid at all; the replay would spin
forever, and the doorbell raises :class:`ValueError` instead.

Idle-skip is always on in shipped runs. Busy polling stays as the
reference the equivalence tests compare against: a test flips every
loop at once with ``set_idle_skip_default(False)`` and restores the
default afterwards. :meth:`Doorbell.park` owns that choice, so poll
loops never branch on it: with idle-skip off it returns the loop's next
busy-poll spin instead of a parked event.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.sim.events import PENDING, TRIGGERED, Event

__all__ = ["Doorbell", "idle_skip_default", "set_idle_skip_default"]

_IDLE_SKIP_DEFAULT = True


def idle_skip_default() -> bool:
    """Process-wide default for doorbell idle-skip (see module docs)."""
    return _IDLE_SKIP_DEFAULT


def set_idle_skip_default(enabled: bool) -> bool:
    """Set the process-wide idle-skip default; returns the old value."""
    global _IDLE_SKIP_DEFAULT
    old, _IDLE_SKIP_DEFAULT = _IDLE_SKIP_DEFAULT, bool(enabled)
    return old


def _grid_tick(anchor: float, interval: float, bound: float,
               strict: bool) -> Tuple[float, int]:
    """First tick of the chain ``anchor+i, (anchor+i)+i, ...`` past ``bound``.

    "Past" is ``> bound`` when ``strict``, else ``>= bound``. Returns
    that tick and the number of additions after the first, i.e. the
    earlier ticks skipped. Equal, bit for bit, to replaying the chain
    (see the module docstring for why runs of ticks can be jumped).
    """
    tick = anchor + interval
    skipped = 0
    while tick <= bound if strict else tick < bound:
        step = tick + interval
        if step == tick:
            raise ValueError(
                f"poll interval {interval!r} cannot advance the poll grid "
                f"anchored at {anchor!r}: it is at most half an ulp of "
                f"the tick {tick!r}")
        # A wait of a few ticks just steps; jumping pays off past that.
        if tick > 0 and bound - tick > 4 * interval:
            ulp = math.ulp(tick)
            edge = math.ldexp(1.0, math.frexp(tick)[1])
            if step < edge and (math.fmod(interval, ulp) != ulp / 2
                                or (tick / ulp) % 2 == 0):
                d = step - tick
                # Stay two steps inside the binade (so every jumped
                # addition is exact) and one step short of the bound.
                # The binade caps k below 2**52, and the two roundings
                # in the bound's quotient move it by less than one step
                # there, so the last jumped-over tick stays before it.
                k = int(min((edge - tick) / d - 2, (bound - tick) / d - 1))
                if k > 1:
                    tick += k * d
                    skipped += k
                    continue
        tick = step
        skipped += 1
    return tick, skipped


class Doorbell:
    """Park/ring wakeup for one poll loop, with poll-grid quantization.

    Usage inside the loop process::

        while True:
            busy = drain_everything()
            if not busy:
                yield doorbell.park()

    Producers call :meth:`ring` whenever they make work visible to the
    loop. Rings while the loop is busy (or already woken) are no-ops:
    the loop's drain pass is level-triggered, so the work is picked up
    regardless.
    """

    __slots__ = ("sim", "interval", "enabled", "_parked", "_anchor")

    def __init__(self, sim, poll_interval_s: float,
                 enabled: Optional[bool] = None):
        if poll_interval_s <= 0:
            raise ValueError(f"poll interval must be positive: {poll_interval_s}")
        self.sim = sim
        self.interval = poll_interval_s
        self.enabled = _IDLE_SKIP_DEFAULT if enabled is None else bool(enabled)
        self._parked: Optional[Event] = None
        self._anchor = 0.0

    @property
    def is_parked(self) -> bool:
        return self._parked is not None

    def park(self, deadline_s: Optional[float] = None) -> Event:
        """The loop's idle wait: what to yield after an empty drain pass.

        * idle-skip off: the busy-poll spin, a one-interval timeout
          counted in ``idle_poll_events``;
        * idle-skip on: an event that fires at the quantized wake tick
          after a :meth:`ring`;
        * idle-skip on with ``deadline_s``: that event or the first
          poll-grid tick at or after ``deadline_s``, whichever comes
          first (see :meth:`deadline`). The caller must :meth:`cancel`
          after the wait returns.

        Must be called by the loop process itself, immediately after a
        drain pass that found nothing (so no work can slip between the
        check and the park).
        """
        sim = self.sim
        if not self.enabled:
            sim.stats.idle_poll_events += 1
            return sim.timeout(self.interval)
        event = Event(sim)
        self._parked = event
        self._anchor = sim._now
        sim.stats.doorbell_parks += 1
        if deadline_s is None:
            return event
        return sim.any_of([event, self.deadline(deadline_s)])

    def ring(self, posted_s: Optional[float] = None) -> None:
        """Producer-side notification: schedule the parked loop's wakeup.

        The wakeup is the busy-poll grid's first tick strictly after
        now: a busy loop's tick event was queued one interval earlier,
        so it runs before work made visible on that same tick by an
        event queued since. ``posted_s`` is for work queued long
        before it becomes visible (a fault timer armed in advance): an
        event queued before the loop's previous tick runs ahead of that
        tick's event, so work it makes visible exactly on a tick is
        picked up on that tick. Work posted at the park instant itself
        counts as queued after the park.
        """
        sim = self.sim
        sim.stats.doorbell_rings += 1
        event = self._parked
        if event is None or event._state is not PENDING:
            return
        self._parked = None
        # The busy-poll grid's first tick strictly after now, bit for bit.
        tick, skipped = _grid_tick(self._anchor, self.interval, sim._now,
                                   strict=True)
        if posted_s is not None:
            tick, skipped = self._posted_tick(posted_s, tick, skipped)
        sim.stats.idle_polls_skipped += skipped
        event._ok = True
        event._value = None
        event._state = TRIGGERED
        sim._schedule_at(tick, event)

    def _posted_tick(self, posted_s: float, tick: float,
                     skipped: int) -> Tuple[float, int]:
        """The wake tick for work posted at ``posted_s``, visible now."""
        anchor, interval, now = self._anchor, self.interval, self.sim._now
        if now > anchor:
            on_tick, ahead = _grid_tick(anchor, interval, now, strict=False)
            if on_tick == now and (
                    posted_s < anchor
                    or _grid_tick(anchor, interval, posted_s,
                                  strict=True)[0] < now):
                return on_tick, ahead
        return tick, skipped

    def deadline(self, deadline_s: float) -> Event:
        """Event at the first poll-grid tick at or after ``deadline_s``.

        Lets a parked loop bound its wait (retry timeouts, watchdog
        budgets) without losing bit-identity with busy polling: the
        busy-poll loop notices an expired deadline on the first grid
        tick whose time is ``>= deadline_s``, and this event fires at
        exactly that tick of the chain from the current park anchor.
        ``park(deadline_s)`` pairs it with the parked event.
        """
        tick, _ = _grid_tick(self._anchor, self.interval, deadline_s,
                             strict=False)
        event = Event(self.sim)
        event._ok = True
        event._value = None
        event._state = TRIGGERED
        self.sim._schedule_at(tick, event)
        return event

    def cancel(self) -> None:
        """Forget the parked event (loop shutdown); pending rings no-op."""
        self._parked = None

    def snapshot_state(self) -> dict:
        """Snapshot-protocol hook (see :mod:`repro.sim.snapshot`).

        The anchor is the whole story: a parked loop's future wake grid
        is the chain ``anchor+i, (anchor+i)+i, ...``, so restoring the
        anchor into a rebuilt (and re-parked) doorbell makes the next
        ring land on exactly the tick the original run would have used.
        The parked event itself is rebuilt by the shell's own
        run-to-park; only the grid origin needs to travel.
        """
        return {"anchor": self._anchor, "parked": self.is_parked}

    def restore_state(self, state: dict) -> None:
        self._anchor = state["anchor"]
