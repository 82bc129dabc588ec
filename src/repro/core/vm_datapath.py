"""Shared-memory virtio integration for vm-guests.

The bm path's ring machinery is exercised end-to-end by
:meth:`BmHiveServer.boot_guest`; this module is the symmetric piece
for the baseline: a vhost-user backed virtio-blk service where the
guest driver and the backend operate on the *same* ring in shared
memory — no IO-Bond, no shadow vrings, no DMA engine. Cold migration
tests use it to boot the same image on both substrates through real
descriptor chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.backend.vhost import VhostUserBackend, VhostUserFrontend
from repro.config.profile import HardwareProfile
from repro.guest.image import VmImage
from repro.sim.doorbell import Doorbell
from repro.virtio.blk import (
    SECTOR_BYTES,
    VIRTIO_BLK_S_OK,
    VIRTIO_BLK_T_IN,
    BlkRequestHeader,
    VirtioBlkDevice,
)
from repro.virtio.device import full_init

__all__ = ["VmBlkService", "vm_boot_via_rings"]


@dataclass
class BootStats:
    """Counters from a ring-level vm boot."""

    requests_served: int
    bytes_returned: int
    kicks_suppressed: int


class VmBlkService:
    """A vhost-user block backend polling a guest's ring directly.

    "Shared buffers are easy to set up on the virtualization server
    because the front- and back-end can access the same memory"
    (Section 3.4) — here literally: both ends hold the same
    :class:`VirtQueue` object.
    """

    def __init__(self, sim, guest, image: VmImage,
                 service_latency_s: Optional[float] = None,
                 poll_interval_s: Optional[float] = None,
                 profile: Optional[HardwareProfile] = None):
        self.sim = sim
        self.guest = guest
        self.image = image
        self.profile = profile or HardwareProfile.paper()
        poll = self.profile.poll
        self.service_latency_s = (
            service_latency_s if service_latency_s is not None
            else poll.vhost_blk_service_s
        )
        self.poll_interval_s = (
            poll_interval_s if poll_interval_s is not None
            else poll.vhost_blk_poll_s
        )
        self.device = VirtioBlkDevice(
            queue_size=self.profile.guest.virtio_queue_size
        )
        full_init(self.device)
        guest.blk_device = self.device
        # The vhost-user control plane that hands the ring over.
        self.vhost_backend = VhostUserBackend()
        self.vhost_frontend = VhostUserFrontend(self.vhost_backend, n_queues=1)
        self.vhost_frontend.connect()
        self.requests_served = 0
        self.bytes_returned = 0
        # Idle-skip doorbell: the guest ringing the avail ring wakes a
        # parked backend instead of the backend spinning to notice it.
        self.doorbell = Doorbell(sim, self.poll_interval_s)
        self._running = None

    def start(self) -> None:
        if self._running is not None:
            raise RuntimeError("service already started")
        self.device.vq.on_avail = self.doorbell.ring
        self._running = self.sim.spawn(self._poll_loop(), name="vhost-blk")

    def stop(self) -> None:
        if self._running is not None and self._running.is_alive:
            self._running.interrupt("shutdown")
        self._running = None
        self.doorbell.cancel()
        if self.device.vq.on_avail == self.doorbell.ring:
            self.device.vq.on_avail = None

    def _poll_loop(self):
        from repro.sim.events import Interrupt

        try:
            while True:
                busy = False
                while True:
                    fetched = self.device.device_fetch_request()
                    if fetched is None:
                        break
                    busy = True
                    chain, header, _payload = fetched
                    yield self.sim.timeout(self.service_latency_s)
                    if header.type == VIRTIO_BLK_T_IN:
                        nbytes = chain.writable_bytes - 1
                        data = b"".join(
                            self.image.read_sector(header.sector + i)
                            for i in range(nbytes // SECTOR_BYTES)
                        )
                        self.device.device_complete(chain, data, VIRTIO_BLK_S_OK)
                        self.bytes_returned += len(data)
                    else:
                        self.device.device_complete(chain, b"", VIRTIO_BLK_S_OK)
                    self.requests_served += 1
                if not busy:
                    yield self.doorbell.park()
        except Interrupt:
            return


def vm_boot_via_rings(sim, guest, image: VmImage,
                      profile: Optional[HardwareProfile] = None):
    """Process: boot a vm-guest through real shared-memory rings.

    Returns ``(BootRecord, BootStats)``. The same firmware logic used
    on the bm side drives this — one image, two substrates.
    """
    from repro.guest.firmware import EfiFirmware

    profile = profile or HardwareProfile.paper()
    service = VmBlkService(sim, guest, image, profile=profile)
    service.start()
    device = service.device
    firmware = EfiFirmware(sim)
    # The firmware's used-ring poll (10 µs cadence) parks on its own
    # doorbell; the backend pushing a used element rings it.
    used_bell = Doorbell(sim, profile.poll.firmware_used_poll_s)
    device.vq.on_used = used_bell.ring

    def io_roundtrip(sector, n_sectors):
        head = device.driver_read(sector, n_sectors * SECTOR_BYTES)
        chain = device.vq.resolve_chain(head)
        # No kick needed: the PMD backend polls the shared ring.
        device.vq.needs_kick()
        while True:
            used = device.vq.get_used()
            if used is not None:
                break
            yield used_bell.park()
        addr, length = chain.writable[0]
        return device.memory.read(addr, length)

    record = yield from firmware.boot(device, image, io_roundtrip)
    service.stop()
    used_bell.cancel()
    device.vq.on_used = None
    stats = BootStats(
        requests_served=service.requests_served,
        bytes_returned=service.bytes_returned,
        kicks_suppressed=device.vq.kicks_suppressed,
    )
    guest.image = image
    return record, stats
