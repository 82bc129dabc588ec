"""Ring-level closed-loop block workload for fault experiments.

Unlike the abstract :class:`~repro.core.paths.BmBlkPath` cost model,
this workload drives the *real* Fig 6 machinery end to end — guest
vring post, emulated queue-notify through IO-Bond, shadow-vring sync,
bm-hypervisor poll service against SPDK storage, completion DMA — so a
hypervisor crash actually strands descriptors and the recovery
datapaths (guest retry timers, supervisor replay) are what brings them
back. One request is outstanding at a time, issued on a fixed
period/offset grid, so two staggered loads on co-tenant guests produce
records that can be compared bit-for-bit across runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config.profile import PollSpec
from repro.core.server import blk_handler
from repro.hypervisor.bm import GuestState
from repro.virtio.blk import SECTOR_BYTES, BlkQueueDriver
from repro.virtio.device import full_init
from repro.virtio.reliability import RetryExhausted, RetryPolicy

__all__ = ["RingBlkLoad"]

READ_BYTES = 4096


class RingBlkLoad:
    """Closed-loop 4 KiB virtio-blk reads through the full ring datapath.

    ``records`` is a list of ``(index, issued_at, completed_at,
    attempts)`` tuples — exact floats, suitable for ``==`` comparison
    between a faulted and a fault-free run (blast-radius checks).
    """

    def __init__(self, sim, guest, storage, n_requests: int = 64,
                 period_s: float = 400e-6, offset_s: float = 0.0,
                 policy: Optional[RetryPolicy] = None,
                 queue_index: int = 0):
        if n_requests <= 0:
            raise ValueError(f"need at least one request, got {n_requests}")
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        if queue_index < 0:
            raise ValueError(f"queue_index must be >= 0, got {queue_index}")
        self.sim = sim
        self.guest = guest
        self.storage = storage
        self.queue_index = queue_index
        self.n_requests = n_requests
        self.period_s = period_s
        self.offset_s = offset_s
        self.policy = policy or RetryPolicy()
        self.tracker = None
        self.records: List[Tuple[int, float, float, int]] = []
        self.retries = 0
        self.duplicate_completions = 0
        self.failures: List[int] = []
        self.done = False

    # -- backend wiring ------------------------------------------------
    def install(self) -> None:
        """Initialize the device and register the blk service handler.

        The handler survives hypervisor restarts: crash recovery
        captures it via ``handlers()`` and re-registers it on the
        replacement process, exactly like live upgrade does.
        """
        blk = self.guest.blk_device
        if not blk.queues:
            full_init(blk)
        if self.queue_index >= blk.n_queues:
            raise ValueError(
                f"queue {self.queue_index} out of range for "
                f"{blk.n_queues}-queue device")
        hv = self.guest.hypervisor
        hv.register_handler("blk", self.queue_index,
                            blk_handler(self.storage, self.guest,
                                        self.queue_index))
        if hv.state is GuestState.POWERED_ON:
            hv.mark_booting()
        if not hv.is_polling:
            hv.start()
        if hv.state is GuestState.BOOTING:
            hv.mark_running()

    # -- the guest-side loop -------------------------------------------
    def run(self):
        """Process: issue and complete every request, with retries."""
        sim = self.sim
        blk = self.guest.blk_device
        self.tracker = blk.request_tracker(sim, self.policy,
                                           queue_index=self.queue_index)
        driver = BlkQueueDriver(sim, blk, PollSpec.firmware_used_poll_s,
                                self.queue_index, bond=self.guest.bond)
        try:
            issue_at = self.offset_s
            for index in range(self.n_requests):
                if issue_at > sim.now:
                    yield sim.timeout(issue_at - sim.now)
                yield from self._one_request(index, driver)
                issue_at += self.period_s
        finally:
            driver.close()
        self.done = True
        return tuple(self.records)

    def _one_request(self, index: int, driver: BlkQueueDriver):
        sim = self.sim
        tracker = self.tracker
        n_sectors = READ_BYTES // SECTOR_BYTES
        sector = (index * n_sectors) % (driver.device.capacity_sectors
                                        - n_sectors)
        head = driver.submit(sector, READ_BYTES)
        tracker.post(head)
        issued = sim.now
        yield from driver.kick()
        while True:
            used = yield from driver.wait(tracker.next_deadline())
            if used is None:
                try:
                    tracker.recover(head)
                except RetryExhausted:
                    tracker.complete(head)
                    self.failures.append(index)
                    return
                self.retries += 1
                # Both recovery outcomes need a kick: a reposted chain
                # is invisible until IO-Bond re-syncs the avail ring.
                yield from driver.kick()
                continue
            if used[0] != head:
                # A latent completion for an abandoned request; the
                # shadow vring already deduplicated live replays.
                self.duplicate_completions += 1
                continue
            attempts = tracker.attempts(head)
            tracker.complete(head)
            self.records.append((index, issued, sim.now, attempts))
            return
