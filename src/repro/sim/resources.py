"""Shared-resource primitives built on the event kernel.

These are the queueing building blocks used by the hardware and
hypervisor models:

* :class:`Resource` — counted resource with FIFO waiters (CPU cores,
  DMA channels, PCIe tags).
* :class:`TokenBucket` — rate limiter (PPS / bandwidth / IOPS caps as
  deployed in the paper's cloud).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.events import Event

__all__ = ["Resource", "TokenBucket"]


class Resource:
    """A resource with ``capacity`` interchangeable slots.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim, capacity: int = 1, label: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.label = label
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        register = getattr(sim, "_register_primitive", None)
        if register is not None:
            register(self)

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take a slot without queueing; returns False when all busy.

        Hot-path variant of ``request()``: an uncontended acquire costs
        no event at all, so callers can do
        ``if not res.try_acquire(): yield res.request()`` and only hit
        the heap when they actually have to wait. A free slot implies no
        waiters (``release`` hands slots to waiters directly), so this
        never jumps the FIFO queue.
        """
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return one slot; wakes the oldest waiter, if any."""
        if self.in_use <= 0:
            raise RuntimeError("release() without a matching request()")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    def snapshot_state(self) -> dict:
        """Snapshot-protocol hook (see :mod:`repro.sim.snapshot`).

        Only the slot count is state; waiter queues must be empty at a
        quiescent point (a queued waiter implies a pending event), so
        they are asserted, not captured.
        """
        if self._waiters:
            raise RuntimeError(
                f"resource {self.label!r} has queued waiters; snapshots "
                "are taken at quiescence")
        return {"in_use": self.in_use}

    def restore_state(self, state: dict) -> None:
        self.in_use = state["in_use"]

    def withdraw(self, event: Event) -> None:
        """Abandon a request whose waiter was interrupted.

        A process killed while blocked on ``yield resource.request()``
        must not leave its request behind: a still-queued event would
        later be granted to a dead process and leak the slot forever.
        If the grant already happened (the event triggered but the
        interrupt arrived first), the slot is simply released.
        """
        try:
            self._waiters.remove(event)
            return
        except ValueError:
            pass
        if event.triggered:
            self.release()


class TokenBucket:
    """Token-bucket rate limiter.

    The cloud in the paper rate-limits every guest: 4M packets/s and
    10 Gbit/s for networking, 25K IOPS and 300 MB/s for storage. This
    class models those caps. Tokens accrue continuously at ``rate`` per
    second up to ``burst``.
    """

    def __init__(self, sim, rate: float, burst: Optional[float] = None):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.sim = sim
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else float(rate) * 1e-3
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {burst}")
        self._tokens = self.burst
        self._last_refill = sim.now

    def _refill(self) -> None:
        now = self.sim.now
        self._tokens = min(self.burst, self._tokens + (now - self._last_refill) * self.rate)
        self._last_refill = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def set_rate(self, rate: float) -> None:
        """Change the refill rate in place (brownout fault injection).

        Tokens accrued so far are settled at the old rate first, so the
        change only affects refill from the current instant on.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._refill()
        self.rate = float(rate)

    def drain(self) -> float:
        """Empty the bucket (e.g. to skip the initial burst in tests)."""
        self._refill()
        tokens, self._tokens = self._tokens, 0.0
        return tokens

    def try_consume(self, amount: float = 1.0) -> bool:
        """Consume ``amount`` tokens if immediately available."""
        self._refill()
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False

    def delay_for(self, amount: float = 1.0) -> float:
        """Seconds until ``amount`` tokens could be consumed (0 if now)."""
        self._refill()
        if self._tokens >= amount:
            return 0.0
        return (amount - self._tokens) / self.rate

    def snapshot_state(self) -> dict:
        """Snapshot-protocol hook: fill level and refill bookkeeping.

        ``rate``/``burst`` are captured too so a restore after a
        mid-run ``set_rate`` (brownout fault) reproduces the changed
        configuration, not the construction-time one.
        """
        return {
            "rate": self.rate,
            "burst": self.burst,
            "tokens": self._tokens,
            "last_refill": self._last_refill,
        }

    def restore_state(self, state: dict) -> None:
        self.rate = state["rate"]
        self.burst = state["burst"]
        self._tokens = state["tokens"]
        self._last_refill = state["last_refill"]

    def consume(self, amount: float = 1.0):
        """Process helper: generator that waits for and consumes tokens.

        Amounts larger than the burst are consumed in burst-sized
        chunks (the bucket can never hold more than ``burst`` at once).
        A small epsilon guards against float rounding: without it, the
        residual wait can shrink toward zero without ever reaching it,
        spinning the event loop at a single timestamp.
        """
        epsilon = 1e-12
        remaining = amount
        while remaining > 0:
            chunk = min(remaining, self.burst)
            wait = self.delay_for(chunk)
            if wait <= epsilon:
                self._refill()
                self._tokens -= chunk
                remaining -= chunk
            else:
                yield self.sim.timeout(wait + epsilon)
