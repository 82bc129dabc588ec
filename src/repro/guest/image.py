"""VM images, shared between vm-guests and bm-guests.

"From the user perspective, they only need to provide a VM image,
which can be run as either a VM or a bm-guest" (Section 3.1) — the
prerequisite for *cold migration* between service kinds. An image is a
block-addressed artifact: bootloader sectors, a kernel, and a root
filesystem, all stored in the cloud (most guests may not use local
disks).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict

from repro.virtio.blk import SECTOR_BYTES

__all__ = ["VmImage", "BOOTLOADER_SECTOR", "KERNEL_SECTOR"]

BOOTLOADER_SECTOR = 0
BOOTLOADER_SECTORS = 8            # 4 KiB bootloader
KERNEL_SECTOR = 2048              # kernel at the 1 MiB mark
KERNEL_SECTORS = 16384            # 8 MiB kernel image

_DIGESTS_PER_SECTOR = SECTOR_BYTES // 32  # 32-byte SHA-256 digests tile a sector


def _synthetic_sector(prefix: bytes, index: int) -> bytes:
    """Deterministic filler for sector ``index`` of the region ``prefix``."""
    block = hashlib.sha256(prefix + index.to_bytes(8, "little")).digest()
    return block * _DIGESTS_PER_SECTOR


@dataclass
class VmImage:
    """A bootable cloud image."""

    name: str
    kernel_version: str = "3.10.0-514.26.2.el7"
    os_name: str = "CentOS 7"
    size_sectors: int = 4 * 1024 * 1024 * 2  # 4 GiB
    _sectors: Dict[int, bytes] = field(default_factory=dict, repr=False)
    # ``seed + b"fs"``: every on-demand sector hashes this prefix, so it
    # is built once rather than per read.
    _fs_prefix: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seed = f"{self.name}:{self.kernel_version}".encode()
        self._fs_prefix = seed + b"fs"
        for i in range(BOOTLOADER_SECTORS):
            self._sectors[BOOTLOADER_SECTOR + i] = _synthetic_sector(seed + b"boot", i)
        # Store only the kernel's first and last sectors plus a digest;
        # intermediate sectors are generated on demand.
        for i in (0, KERNEL_SECTORS - 1):
            self._sectors[KERNEL_SECTOR + i] = _synthetic_sector(seed + b"kernel", i)

    def read_sector(self, sector: int) -> bytes:
        """Content of one 512-byte sector."""
        if not 0 <= sector < self.size_sectors:
            raise ValueError(f"sector {sector} outside image of {self.size_sectors}")
        stored = self._sectors.get(sector)
        if stored is not None:
            return stored
        return _synthetic_sector(self._fs_prefix, sector)

    def read(self, sector: int, nbytes: int) -> bytes:
        """Content of the whole sectors in ``nbytes`` from ``sector`` on."""
        return b"".join(self.read_sector(sector + i)
                        for i in range(nbytes // SECTOR_BYTES))

    @property
    def bootloader_range(self) -> range:
        return range(BOOTLOADER_SECTOR, BOOTLOADER_SECTOR + BOOTLOADER_SECTORS)

    @property
    def kernel_range(self) -> range:
        return range(KERNEL_SECTOR, KERNEL_SECTOR + KERNEL_SECTORS)

    def digest(self) -> str:
        """Stable identity digest: same image -> same digest, either service."""
        h = hashlib.sha256()
        h.update(self.name.encode())
        h.update(self.kernel_version.encode())
        h.update(self.os_name.encode())
        return h.hexdigest()
