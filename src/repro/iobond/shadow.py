"""Shadow vrings: the base-side mirror of each guest virtqueue.

"The front- and back-end of IO-Bond do not share the physical memory...
IO-Bond creates a ring buffer with both the bm-hypervisor and bm-guest.
The ring buffer with the bm-hypervisor (shadow vring) is synchronized
to the other ring buffer. When the data is added to one ring buffer, it
is copied to the other buffer by the DMA engine in IO-Bond" (Fig 4,
Section 3.4.1).

A :class:`ShadowVring` pairs a guest-side :class:`~repro.virtio.vring.
VirtQueue` with a base-side buffer list and owns the head/tail
registers the bm-hypervisor polls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.iobond.registers import HeadTailRegisters
from repro.virtio.vring import DescriptorChain, VirtQueue

__all__ = ["ShadowVring", "ShadowEntry"]


@dataclass
class ShadowEntry:
    """One synchronized buffer in the shadow vring.

    ``payload`` is the device-readable data copied from guest memory
    (Tx frames, blk write payloads); ``writable_bytes`` is the guest-
    side capacity for device-written data (Rx buffers, blk reads).
    """

    guest_head: int
    payload: bytes
    writable_bytes: int


class ShadowVring:
    """Base-side mirror of one guest virtqueue plus its registers."""

    def __init__(self, guest_vq: VirtQueue, name: str = "shadow",
                 queue_index: int = 0):
        self.guest_vq = guest_vq
        self.name = name
        # Which virtqueue of the owning port this shadow mirrors; the
        # bm-hypervisor's per-queue doorbell wiring keys off it.
        self.queue_index = queue_index
        self.registers = HeadTailRegisters()
        self._entries: Deque[ShadowEntry] = deque()
        # Completions queued by the backend, waiting for IO-Bond to DMA
        # them back into guest memory: (guest_head, device_payload).
        self._completions: Deque[Tuple[int, bytes]] = deque()
        self._staged_chains = _ChainMap()
        # Entries handed to the backend (consume register advanced) but
        # not yet completed. If the bm-hypervisor crashes mid-service,
        # these are the descriptors that would be lost; the supervisor
        # republishes them via :meth:`replay_consumed` — the hardware-
        # side analogue of vhost-user inflight-descriptor recovery.
        self._consumed: Dict[int, ShadowEntry] = {}
        self.synced_to_shadow = 0
        self.synced_to_guest = 0
        self.replayed = 0
        self.duplicates_dropped = 0
        # Doorbell hook: fired when new entries become visible to the
        # backend's poll (see repro.sim.doorbell). Wired by the
        # bm-hypervisor when it registers a handler for this queue.
        self.on_publish = None

    # -- guest -> shadow (IO-Bond sync after a guest kick) -------------------
    def stage_from_guest(self) -> Tuple[int, int]:
        """Resolve all newly-available guest chains into shadow entries.

        Returns ``(n_entries, payload_bytes)`` so the caller (IO-Bond)
        can charge the DMA time for the copy, then call
        :meth:`publish_staged`.
        """
        staged = 0
        payload_bytes = 0
        while True:
            chain = self.guest_vq.pop_avail()
            if chain is None:
                break
            payload = self.guest_vq.read_chain(chain)
            entry = ShadowEntry(
                guest_head=chain.head,
                payload=payload,
                writable_bytes=chain.writable_bytes,
            )
            self._entries.append(entry)
            # Writable capacity costs only descriptor metadata to sync;
            # readable payload is the data the DMA engine must move.
            payload_bytes += len(payload) + 16
            staged += 1
            self._staged_chains.append(chain)
        self.synced_to_shadow += staged
        return staged, payload_bytes

    def publish_staged(self, count: int) -> None:
        """Advance the head register so the backend's poll sees entries."""
        self.registers.publish(count)
        if count > 0 and self.on_publish is not None:
            self.on_publish()

    # -- backend side ------------------------------------------------------------
    def backend_poll(self) -> Optional[ShadowEntry]:
        """Backend: consume one published entry, or None."""
        if self.registers.pending <= 0 or not self._entries:
            return None
        self.registers.consume(1)
        entry = self._entries.popleft()
        self._consumed[entry.guest_head] = entry
        return entry

    def backend_complete(self, guest_head: int, payload: bytes = b"") -> None:
        """Backend: queue a completion for DMA back to the guest."""
        self._consumed.pop(guest_head, None)
        self._completions.append((guest_head, payload))

    def replay_consumed(self) -> int:
        """Republish entries whose service died with the bm-hypervisor.

        Re-queues every consumed-but-uncompleted entry at the front of
        the shadow ring (original order) and advances the head register
        so the restarted hypervisor's poll sees them again. Returns the
        number of entries replayed.
        """
        if not self._consumed:
            return 0
        entries = list(self._consumed.values())
        self._consumed.clear()
        self._entries.extendleft(reversed(entries))
        self.replayed += len(entries)
        self.publish_staged(len(entries))
        return len(entries)

    # -- invariants (chaos monitors) -----------------------------------------
    def conservation(self) -> Dict[str, int]:
        """Entry-conservation snapshot for the invariant monitors.

        Every entry that ever entered the shadow (``synced_to_shadow``)
        is, at any instant, in exactly one place: still queued for the
        backend, consumed-but-uncompleted (in flight), queued as a
        completion, delivered to the guest, or dropped as a duplicate.
        ``balance`` is the difference between the source count and the
        sum of those sinks — zero unless an entry was lost or forged.
        Replays move entries between buckets and never touch the sum.
        """
        accounted = (
            len(self._entries)
            + len(self._consumed)
            + len(self._completions)
            + self.synced_to_guest
            + self.duplicates_dropped
        )
        return {
            "synced_to_shadow": self.synced_to_shadow,
            "queued": len(self._entries),
            "inflight": len(self._consumed),
            "completions_pending": len(self._completions),
            "synced_to_guest": self.synced_to_guest,
            "duplicates_dropped": self.duplicates_dropped,
            "replayed": self.replayed,
            "balance": self.synced_to_shadow - accounted,
        }

    # -- shadow -> guest (IO-Bond writes back and fires MSI) -----------------------
    def stage_to_guest(self) -> Tuple[int, int]:
        """Peek at pending completions: ``(count, payload_bytes)``."""
        return (
            len(self._completions),
            sum(len(payload) for _, payload in self._completions) + 4 * len(self._completions),
        )

    def flush_to_guest(self) -> int:
        """Write all completions into guest memory and the used ring.

        Returns the number of completions delivered. The caller charges
        DMA time first (using :meth:`stage_to_guest`).
        """
        delivered = 0
        while self._completions:
            guest_head, payload = self._completions.popleft()
            chain = self._staged_chains.pop(guest_head)
            if chain is None:
                # Duplicate completion: a timed-out request was replayed
                # and both the original and the retry completed. The
                # chain was already returned to the guest, so pushing it
                # used again would corrupt the descriptor free list —
                # IO-Bond deduplicates at the writeback boundary instead,
                # guaranteeing exactly-once used-ring delivery.
                self.duplicates_dropped += 1
                continue
            written = 0
            if payload:
                written = self.guest_vq.write_chain(chain, payload)
            self.guest_vq.push_used(guest_head, written)
            delivered += 1
        self.synced_to_guest += delivered
        return delivered


class _ChainMap:
    """In-flight chains by head index, preserving append order."""

    def __init__(self):
        self._map = {}

    def append(self, chain: DescriptorChain) -> None:
        self._map[chain.head] = chain

    def pop(self, head: int) -> Optional[DescriptorChain]:
        return self._map.pop(head, None)

    def __len__(self) -> int:
        return len(self._map)
