"""Compute-board firmware: signed updates and virtio boot.

Two paper requirements live here:

* **Protected firmware** — "The firmware of the compute board is
  properly signed, and can only be updated if the signature of the new
  firmware passes the verification" (Section 1). We model signatures
  with HMAC-SHA256 under a vendor key the tenant never holds.
* **Virtio boot** — "we extend the (EFI-based) firmware of the compute
  board to recognize and utilize virtio during boot" (Section 3.2):
  the bootloader and kernel live in the cloud image, reachable only
  through virtio-blk.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import List

from repro.guest.image import VmImage
from repro.virtio.blk import SECTOR_BYTES, BlkQueueDriver

__all__ = ["FirmwareImage", "SignatureError", "EfiFirmware", "BootRecord"]


class SignatureError(Exception):
    """Raised when a firmware update fails signature verification."""


@dataclass(frozen=True)
class FirmwareImage:
    """A firmware build plus its vendor signature."""

    version: str
    payload: bytes
    signature: bytes

    @classmethod
    def signed(cls, version: str, payload: bytes, vendor_key: bytes) -> "FirmwareImage":
        signature = hmac.new(vendor_key, payload + version.encode(), hashlib.sha256).digest()
        return cls(version=version, payload=payload, signature=signature)

    @classmethod
    def forged(cls, version: str, payload: bytes) -> "FirmwareImage":
        """An image signed with the wrong key — what an attacker ships."""
        return cls.signed(version, payload, vendor_key=b"attacker-key")


@dataclass
class BootRecord:
    """What the firmware loaded and how long each stage took."""

    image_name: str
    kernel_version: str
    bootloader_bytes: int
    kernel_bytes: int
    boot_time_s: float
    stages: List[str] = field(default_factory=list)


class EfiFirmware:
    """The EFI firmware of one compute board."""

    def __init__(self, sim, vendor_key: bytes = b"bm-hive-vendor-key",
                 version: str = "1.0.0"):
        self.sim = sim
        self._vendor_key = vendor_key
        self.version = version
        self.update_attempts = 0
        self.updates_applied = 0

    # -- signed update path -----------------------------------------------------
    def verify(self, image: FirmwareImage) -> bool:
        expected = hmac.new(
            self._vendor_key, image.payload + image.version.encode(), hashlib.sha256
        ).digest()
        return hmac.compare_digest(expected, image.signature)

    def update(self, image: FirmwareImage) -> None:
        """Apply a firmware update; rejects bad signatures."""
        self.update_attempts += 1
        if not self.verify(image):
            raise SignatureError(
                f"firmware {image.version!r} failed signature verification"
            )
        self.version = image.version
        self.updates_applied += 1

    # -- virtio boot path ----------------------------------------------------------
    def boot(self, driver: BlkQueueDriver, image: VmImage):
        """Process: boot the guest from cloud storage over virtio-blk.

        ``driver`` drives the boot request queue on whichever substrate
        backs it. Firmware has no interrupts: each read is submit, kick,
        then a poll of the used ring. Returns a :class:`BootRecord`.
        """
        start = self.sim.now
        stages = ["power_on", "efi_init"]
        yield self.sim.timeout(50e-3)  # EFI init + PCI bus scan
        stages.append("virtio_blk_probe")

        bootloader_bytes = 0
        for sector in image.bootloader_range:
            data = yield from self._read(driver, sector, 1)
            expected = image.read_sector(sector)
            if data[: len(expected)] != expected:
                raise IOError(f"bootloader sector {sector} corrupt")
            bootloader_bytes += SECTOR_BYTES
        stages.append("bootloader_loaded")

        # The bootloader reads the kernel in 64-sector (32 KiB) chunks.
        kernel_bytes = 0
        kernel = image.kernel_range
        chunk = 64
        for base in range(kernel.start, kernel.stop, chunk):
            n = min(chunk, kernel.stop - base)
            yield from self._read(driver, base, n)
            kernel_bytes += n * SECTOR_BYTES
        stages.append("kernel_loaded")
        yield self.sim.timeout(10e-3)  # decompress + handoff
        stages.append("kernel_entry")

        return BootRecord(
            image_name=image.name,
            kernel_version=image.kernel_version,
            bootloader_bytes=bootloader_bytes,
            kernel_bytes=kernel_bytes,
            boot_time_s=self.sim.now - start,
            stages=stages,
        )

    @staticmethod
    def _read(driver: BlkQueueDriver, sector: int, n_sectors: int):
        """Process: one blocking read; returns the data buffer.

        The firmware keeps one request in flight, so the next used
        entry is this one.
        """
        head = driver.submit(sector, n_sectors * SECTOR_BYTES)
        addr, length = driver.vq.resolve_chain(head).writable[0]
        yield from driver.kick()
        yield from driver.wait()
        return driver.vq.memory.read(addr, length)
