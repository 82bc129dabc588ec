"""Shared-memory virtio integration for vm-guests.

The bm path's ring machinery is exercised end-to-end by
:meth:`BmHiveServer.boot_guest`; this module is the symmetric piece
for the baseline: a vhost-user backed virtio-blk service where the
guest driver and the backend operate on the *same* ring in shared
memory — no IO-Bond, no shadow vrings, no DMA engine. Cold migration
tests use it to boot the same image on both substrates through real
descriptor chains.

"One image, two substrates" holds in code: both boots run the same
firmware over the same :class:`~repro.virtio.blk.BlkQueueDriver`, and
both backends build a read's payload with :meth:`VmImage.read`. Only
what backs the queue differs: IO-Bond's shadow vring on bm, the shared
vring here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.backend.vhost import VhostUserBackend, VhostUserFrontend
from repro.config.profile import HardwareProfile
from repro.guest.image import VmImage
from repro.sim.doorbell import Doorbell
from repro.virtio.blk import (
    VIRTIO_BLK_S_OK,
    VIRTIO_BLK_S_UNSUPP,
    VIRTIO_BLK_T_IN,
    BlkQueueDriver,
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
                 profile: Optional[HardwareProfile] = None):
        self.sim = sim
        self.guest = guest
        self.image = image
        self.profile = profile or HardwareProfile.paper()
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
        self.doorbell = Doorbell(sim, self.profile.poll.vhost_blk_poll_s)
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
                    yield self.sim.timeout(self.profile.poll.vhost_blk_service_s)
                    if header.type == VIRTIO_BLK_T_IN:
                        data = self.image.read(header.sector,
                                               chain.writable_bytes - 1)
                        self.device.device_complete(chain, data, VIRTIO_BLK_S_OK)
                        self.bytes_returned += len(data)
                    else:
                        # The image is read-only, as on the bm path.
                        self.device.device_complete(chain, b"",
                                                    VIRTIO_BLK_S_UNSUPP)
                    self.requests_served += 1
                if not busy:
                    yield self.doorbell.park()
        except Interrupt:
            return


def vm_boot_via_rings(sim, guest, image: VmImage,
                      profile: Optional[HardwareProfile] = None):
    """Process: boot a vm-guest through real shared-memory rings.

    Returns ``(BootRecord, BootStats)``. The firmware and the blk
    driver are the ones :meth:`BmHiveServer.boot_guest` runs over
    IO-Bond — one image, two substrates.
    """
    from repro.guest.firmware import EfiFirmware

    profile = profile or HardwareProfile.paper()
    service = VmBlkService(sim, guest, image, profile=profile)
    service.start()
    device = service.device
    driver = BlkQueueDriver(sim, device, profile.poll.firmware_used_poll_s)
    record = yield from EfiFirmware(sim).boot(driver, image)
    service.stop()
    driver.close()
    stats = BootStats(
        requests_served=service.requests_served,
        bytes_returned=service.bytes_returned,
        kicks_suppressed=device.vq.kicks_suppressed,
    )
    guest.image = image
    return record, stats
