"""Driver-side I/O timeouts and bounded retry.

BM-Hive's recovery story needs the guest to survive a backend outage:
when the bm-hypervisor crashes, descriptors it had consumed are gone
until the supervisor restarts it, and descriptors it never saw sit in
the avail ring with nobody polling. Real guests handle this with a
request timer (blk-mq's ``rq_timeout``, virtio-net's tx watchdog):
on expiry the request is either re-kicked (the device never consumed
it) or replayed (consumed but never completed).

:class:`InflightTable` is that timer for any :class:`~repro.virtio.
vring.VirtQueue`. It tracks issue times per in-flight head, gives the
earliest deadline to wait on, and performs the recovery action. Replays
can race a latent original completion; the device side deduplicates at
the used-ring boundary (``ShadowVring.flush_to_guest``), so delivery
stays exactly-once even when both complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.virtio.vring import VirtQueue

__all__ = ["RetryPolicy", "RetryExhausted", "InflightTable",
           "RECOVER_KICK", "RECOVER_REPLAY"]

RECOVER_KICK = "kick"       # request never consumed: notify the device again
RECOVER_REPLAY = "replay"   # request consumed and lost: repost the chain


@dataclass(frozen=True)
class RetryPolicy:
    """Per-request timeout budget for one virtqueue."""

    timeout_s: float = 10e-3
    max_retries: int = 3

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError(f"timeout must be positive: {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")


class RetryExhausted(RuntimeError):
    """A request missed its deadline ``max_retries + 1`` times."""


@dataclass
class _Inflight:
    head: int
    issued_at: float
    deadline: float
    attempts: int = 0


class InflightTable:
    """Issue-time tracking plus timeout recovery for one virtqueue."""

    def __init__(self, sim, vq: VirtQueue, policy: RetryPolicy):
        self.sim = sim
        self.vq = vq
        self.policy = policy
        self._inflight: Dict[int, _Inflight] = {}
        self.replays = 0
        self.rekicks = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def inflight_heads(self) -> List[int]:
        """Heads with a running request timer, oldest issue first.

        Monitor hook: at quiescence this must be empty — a populated
        table after the workload completed means a request was neither
        completed nor declared failed.
        """
        entries = sorted(self._inflight.values(), key=lambda e: e.issued_at)
        return [e.head for e in entries]

    def post(self, head: int) -> None:
        """Start the request timer for ``head`` (call right after issue)."""
        if head in self._inflight:
            raise ValueError(f"head {head} already tracked")
        now = self.sim.now
        self._inflight[head] = _Inflight(
            head=head, issued_at=now, deadline=now + self.policy.timeout_s,
        )

    def complete(self, head: int) -> float:
        """Stop the timer; returns the request's issue time."""
        entry = self._inflight.pop(head)
        return entry.issued_at

    def attempts(self, head: int) -> int:
        return self._inflight[head].attempts

    def next_deadline(self) -> float:
        """Earliest pending deadline (``inf`` when nothing is in flight)."""
        if not self._inflight:
            return float("inf")
        return min(entry.deadline for entry in self._inflight.values())

    def recover(self, head: int) -> str:
        """Time out ``head``: re-kick or replay, with a fresh deadline.

        Returns :data:`RECOVER_KICK` when the device never consumed the
        request (the caller should re-notify) or :data:`RECOVER_REPLAY`
        when the chain was reposted to the avail ring. Raises
        :class:`RetryExhausted` once the attempt budget is spent.
        """
        entry = self._inflight[head]
        entry.attempts += 1
        if entry.attempts > self.policy.max_retries:
            raise RetryExhausted(
                f"head {head} timed out {entry.attempts} times "
                f"(budget {self.policy.max_retries} retries)"
            )
        entry.deadline = self.sim.now + self.policy.timeout_s
        if self.vq.is_avail_pending(head):
            self.rekicks += 1
            return RECOVER_KICK
        self.vq.repost(head)
        self.replays += 1
        return RECOVER_REPLAY
