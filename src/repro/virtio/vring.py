"""Split virtqueue (vring) implementation.

This is a from-scratch implementation of the virtio 1.x split ring:
descriptor table, available ring, used ring, descriptor chaining,
indirect descriptors, and EVENT_IDX notification suppression. Both the
driver side (guest virtio-net/blk drivers) and the device side (QEMU-
style backend, or IO-Bond's hardware frontend) operate through this
class.

In BM-Hive the *same* structure exists twice per queue: once in the
guest's memory (the real vring the guest driver writes) and once in the
base server's memory (the *shadow vring* the bm-hypervisor reads);
IO-Bond's DMA engine keeps the two synchronized (Fig 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from repro.virtio.memory import GuestMemory

__all__ = [
    "Descriptor",
    "VirtQueue",
    "DescriptorChain",
    "VRING_DESC_F_NEXT",
    "VRING_DESC_F_WRITE",
    "VRING_DESC_F_INDIRECT",
]

VRING_DESC_F_NEXT = 0x1
VRING_DESC_F_WRITE = 0x2
VRING_DESC_F_INDIRECT = 0x4


@dataclass
class Descriptor:
    """One entry of the descriptor table."""

    addr: int = 0
    length: int = 0
    flags: int = 0
    next: int = 0

    @property
    def is_write_only(self) -> bool:
        """True when the *device* writes this buffer (e.g. Rx, blk read)."""
        return bool(self.flags & VRING_DESC_F_WRITE)

    @property
    def has_next(self) -> bool:
        return bool(self.flags & VRING_DESC_F_NEXT)

    @property
    def is_indirect(self) -> bool:
        return bool(self.flags & VRING_DESC_F_INDIRECT)


@dataclass
class DescriptorChain:
    """A resolved chain as seen by the device side."""

    head: int
    readable: List[Tuple[int, int]]  # (addr, len) device-readable segments
    writable: List[Tuple[int, int]]  # (addr, len) device-writable segments

    @property
    def writable_bytes(self) -> int:
        return sum(length for _, length in self.writable)


class VirtQueue:
    """A split virtqueue of ``size`` descriptors.

    Driver-side API: :meth:`add_buffer`, :meth:`peek_used`,
    :meth:`get_used`, :meth:`needs_kick`. Device-side API:
    :meth:`pop_avail`, :meth:`push_used`, :meth:`needs_interrupt`.
    """

    def __init__(self, size: int = 256, memory: Optional[GuestMemory] = None,
                 event_idx: bool = True, indirect: bool = True):
        if size < 2 or size & (size - 1):
            raise ValueError(f"queue size must be a power of two >= 2, got {size}")
        self.size = size
        self.memory = memory or GuestMemory()
        self.event_idx = event_idx
        self.indirect_supported = indirect
        self.desc: List[Descriptor] = [Descriptor() for _ in range(size)]
        self._free: List[int] = list(range(size - 1, -1, -1))
        # Indirect tables, keyed by the synthetic address we give them.
        self._indirect_tables: dict = {}
        self._indirect_next_addr = 1 << 48
        # Available ring (driver -> device).
        self.avail_ring: List[int] = []
        self.avail_idx = 0  # total buffers ever made available
        self._last_avail = 0  # device's consumption cursor
        # Used ring (device -> driver).
        self.used_ring: List[Tuple[int, int]] = []
        self.used_idx = 0  # total buffers ever marked used
        self._last_used = 0  # driver's consumption cursor
        # EVENT_IDX state.
        self.used_event = 0   # driver: "interrupt me when used_idx passes this"
        self.avail_event = 0  # device: "kick me when avail_idx passes this"
        # Counters for notification-suppression analysis.
        self.kicks_suppressed = 0
        self.interrupts_suppressed = 0
        # Doorbell hooks for poll-mode consumers (see repro.sim.doorbell):
        # ``on_avail`` fires when the driver exposes a new buffer (wakes
        # a parked device-side poll loop); ``on_used`` fires when the
        # device retires one (wakes a driver-side used-ring poll).
        self.on_avail: Optional[Callable[[], None]] = None
        self.on_used: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Driver side
    # ------------------------------------------------------------------
    @property
    def num_free(self) -> int:
        return len(self._free)

    def _alloc_descriptor(self) -> int:
        if not self._free:
            raise IndexError("descriptor table exhausted")
        return self._free.pop()

    def add_buffer(self, readable: Iterable[bytes], writable_lengths: Iterable[int],
                   use_indirect: Optional[bool] = None) -> int:
        """Expose a buffer to the device; returns the chain head index.

        ``readable`` are payload segments the device may read (data is
        copied into guest memory); ``writable_lengths`` allocate
        segments for the device to fill (Rx buffers, blk read data,
        status bytes).
        """
        readable = list(readable)
        writable_lengths = list(writable_lengths)
        n_segments = len(readable) + len(writable_lengths)
        if n_segments == 0:
            raise ValueError("a buffer needs at least one segment")

        entries: List[Descriptor] = []
        for data in readable:
            addr = self.memory.alloc(max(1, len(data)))
            if data:
                self.memory.write(addr, data)
            entries.append(Descriptor(addr=addr, length=len(data)))
        for length in writable_lengths:
            if length <= 0:
                raise ValueError(f"writable segment length must be positive: {length}")
            addr = self.memory.alloc(length)
            entries.append(Descriptor(addr=addr, length=length, flags=VRING_DESC_F_WRITE))

        if use_indirect is None:
            use_indirect = self.indirect_supported and n_segments > 1
        if use_indirect and not self.indirect_supported:
            raise ValueError("indirect descriptors were not negotiated")

        if use_indirect:
            head = self._alloc_descriptor()
            table_addr = self._indirect_next_addr
            self._indirect_next_addr += 16 * n_segments
            for i, entry in enumerate(entries[:-1]):
                entry.flags |= VRING_DESC_F_NEXT
                entry.next = i + 1
            self._indirect_tables[table_addr] = entries
            self.desc[head] = Descriptor(
                addr=table_addr, length=16 * n_segments, flags=VRING_DESC_F_INDIRECT
            )
        else:
            if n_segments > self.num_free:
                raise IndexError("descriptor table exhausted")
            indices = [self._alloc_descriptor() for _ in range(n_segments)]
            head = indices[0]
            for i, entry in enumerate(entries):
                if i + 1 < n_segments:
                    entry.flags |= VRING_DESC_F_NEXT
                    entry.next = indices[i + 1]
                self.desc[indices[i]] = entry

        self.avail_ring.append(head)
        self.avail_idx += 1
        if self.on_avail is not None:
            self.on_avail()
        return head

    def repost(self, head: int) -> None:
        """Driver: re-expose a timed-out in-flight chain (replay path).

        The chain's descriptors are still owned by the device (never
        reaped through :meth:`get_used`), so the buffer can be made
        available again as-is — the virtio analogue of an NVMe/SCSI
        command retry after an abort. The device side must deduplicate
        completions (see ``ShadowVring.flush_to_guest``) because the
        original request may still complete after the replay.
        """
        if head in self._free:
            raise ValueError(f"chain {head} is not in flight; cannot repost")
        if self.is_avail_pending(head):
            raise ValueError(f"chain {head} is still avail-pending; kick instead")
        self.avail_ring.append(head)
        self.avail_idx += 1
        if self.on_avail is not None:
            self.on_avail()

    def is_avail_pending(self, head: int) -> bool:
        """Whether ``head`` sits in the avail ring, unconsumed by the device.

        Distinguishes "the device never saw this request" (re-kick it)
        from "the device consumed it and went silent" (replay it).
        """
        return head in self.avail_ring[self._last_avail:]

    def needs_kick(self) -> bool:
        """Should the driver notify the device after adding buffers?

        With EVENT_IDX, the device publishes ``avail_event``; the driver
        kicks only when ``avail_idx`` crosses it. Without EVENT_IDX the
        driver always kicks.
        """
        if not self.event_idx:
            return True
        if self.avail_idx > self.avail_event:
            return True
        self.kicks_suppressed += 1
        return False

    def peek_used(self) -> Optional[Tuple[int, int]]:
        """Driver: the next used element without reaping it, or None."""
        if self._last_used >= self.used_idx:
            return None
        return self.used_ring[self._last_used]

    def get_used(self) -> Optional[Tuple[int, int]]:
        """Driver: reap one used element ``(head, written_len)`` or None."""
        if self._last_used >= self.used_idx:
            return None
        head, written = self.used_ring[self._last_used]
        self._last_used += 1
        self._release_chain(head)
        if self.event_idx:
            self.used_event = self.used_idx
        return head, written

    def _release_chain(self, head: int) -> None:
        index = head
        while True:
            entry = self.desc[index]
            if entry.is_indirect:
                self._indirect_tables.pop(entry.addr, None)
                self._free.append(index)
                return
            self._free.append(index)
            if not entry.has_next:
                return
            index = entry.next

    # ------------------------------------------------------------------
    # Device side
    # ------------------------------------------------------------------
    @property
    def avail_pending(self) -> int:
        """Buffers made available but not yet consumed by the device."""
        return self.avail_idx - self._last_avail

    def pop_avail(self) -> Optional[DescriptorChain]:
        """Device: take the next available chain, resolving indirection."""
        if self._last_avail >= self.avail_idx:
            if self.event_idx:
                self.avail_event = self.avail_idx
            return None
        head = self.avail_ring[self._last_avail]
        self._last_avail += 1
        return self._resolve_chain(head)

    def _resolve_chain(self, head: int) -> DescriptorChain:
        readable: List[Tuple[int, int]] = []
        writable: List[Tuple[int, int]] = []
        first = self.desc[head]
        if first.is_indirect:
            entries = self._indirect_tables[first.addr]
        else:
            entries = []
            index = head
            guard = 0
            while True:
                entry = self.desc[index]
                entries.append(entry)
                guard += 1
                if guard > self.size:
                    raise RuntimeError("descriptor chain loop detected")
                if not entry.has_next:
                    break
                index = entry.next
        seen_writable = False
        for entry in entries:
            if entry.is_write_only:
                seen_writable = True
                writable.append((entry.addr, entry.length))
            else:
                if seen_writable:
                    raise RuntimeError(
                        "malformed chain: readable descriptor after writable"
                    )
                readable.append((entry.addr, entry.length))
        return DescriptorChain(head=head, readable=readable, writable=writable)

    def resolve_chain(self, head: int) -> DescriptorChain:
        """Public chain lookup by head (driver-side inspection/tests)."""
        return self._resolve_chain(head)

    def push_used(self, head: int, written: int = 0) -> None:
        """Device: return a chain to the driver with ``written`` bytes."""
        self.used_ring.append((head, written))
        self.used_idx += 1
        if self.on_used is not None:
            self.on_used()

    def needs_interrupt(self) -> bool:
        """Should the device interrupt the driver after pushing used?"""
        if not self.event_idx:
            return True
        if self.used_idx > self.used_event:
            return True
        self.interrupts_suppressed += 1
        return False

    # ------------------------------------------------------------------
    # Invariant introspection (chaos monitors)
    # ------------------------------------------------------------------
    def cursors(self) -> dict:
        """Ring cursors for monotonicity checks.

        ``avail_ring`` and ``used_ring`` are append-only histories, so
        each value here must be non-decreasing over a run and each
        consumption cursor bounded by its production index.
        """
        return {
            "avail_idx": self.avail_idx,
            "last_avail": self._last_avail,
            "used_idx": self.used_idx,
            "last_used": self._last_used,
        }

    def head_counts(self) -> Tuple[dict, dict]:
        """``(avail_counts, used_counts)`` — per-head occurrence counts.

        A head may legitimately appear in the avail history more than
        once (reposts after a timeout), but exactly-once delivery means
        no head is ever *used* more often than it was made available.
        """
        avail: dict = {}
        for head in self.avail_ring:
            avail[head] = avail.get(head, 0) + 1
        used: dict = {}
        for head, _written in self.used_ring:
            used[head] = used.get(head, 0) + 1
        return avail, used

    # ------------------------------------------------------------------
    # Data access helpers (device side)
    # ------------------------------------------------------------------
    def read_chain(self, chain: DescriptorChain) -> bytes:
        """Concatenate all device-readable segments of ``chain``."""
        return b"".join(
            self.memory.read(addr, length) for addr, length in chain.readable
        )

    def write_chain(self, chain: DescriptorChain, data: bytes) -> int:
        """Scatter ``data`` into the chain's writable segments.

        Returns the number of bytes written; raises if ``data`` exceeds
        the writable capacity.
        """
        if len(data) > chain.writable_bytes:
            raise ValueError(
                f"{len(data)} bytes exceed writable capacity {chain.writable_bytes}"
            )
        remaining = data
        for addr, length in chain.writable:
            if not remaining:
                break
            piece, remaining = remaining[:length], remaining[length:]
            self.memory.write(addr, piece)
        return len(data)
