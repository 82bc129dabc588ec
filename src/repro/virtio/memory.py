"""A simple guest-physical memory model for virtio buffers.

Descriptors in a virtqueue carry guest-physical addresses. This module
provides the address space those descriptors point into: a bump
allocator plus byte-level read/write. Each compute board (and each VM)
has its own :class:`GuestMemory`; the *absence of sharing* between a
bm-guest's memory and the base server's memory is exactly why IO-Bond
needs shadow vrings and a DMA engine (Section 3.4.1).

Regions are never freed, so a long-running device accumulates
thousands of them. The bump allocator hands out bases in increasing
order, which keeps them sorted for free: each access finds its region
with one :func:`bisect.bisect_right` over the bases, O(log n) in the
regions allocated so far rather than a scan over all of them.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List

__all__ = ["GuestMemory"]


class GuestMemory:
    """Byte-addressable guest memory with a bump allocator.

    Only allocated regions may be read or written; stray accesses raise,
    which catches descriptor-handling bugs in tests.
    """

    def __init__(self, capacity_bytes: int = 1 << 30, base_address: int = 0x1000):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity = capacity_bytes
        self._next = base_address
        self._limit = base_address + capacity_bytes
        # Region ``i`` starts at ``_bases[i]``.
        self._bases: List[int] = []
        self._regions: List[bytearray] = []

    def alloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` and return the region's base address."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        if self._next + nbytes > self._limit:
            raise MemoryError(f"guest memory exhausted ({self.capacity} bytes)")
        address = self._next
        self._next += nbytes
        self._bases.append(address)
        self._regions.append(bytearray(nbytes))
        return address

    def _find_region(self, address: int, nbytes: int) -> tuple:
        # The last region starting at or below ``address`` is the only
        # one that can hold it; bases are sorted because allocation is.
        index = bisect_right(self._bases, address) - 1
        if index >= 0:
            base = self._bases[index]
            region = self._regions[index]
            if address + nbytes <= base + len(region):
                return base, region
        raise ValueError(
            f"access [{address:#x}, +{nbytes}) is outside any allocated region"
        )

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` at ``address`` (must be inside one region)."""
        base, region = self._find_region(address, len(data))
        offset = address - base
        region[offset : offset + len(data)] = data

    def read(self, address: int, nbytes: int) -> bytes:
        """Read ``nbytes`` from ``address`` (must be inside one region)."""
        base, region = self._find_region(address, nbytes)
        offset = address - base
        return bytes(region[offset : offset + nbytes])

    @property
    def allocated_bytes(self) -> int:
        return sum(len(region) for region in self._regions)
