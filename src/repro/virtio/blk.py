"""virtio-blk device model and request format.

A block request is a descriptor chain of three parts, as in the spec:
a 16-byte header (type, reserved, sector), the data segments, and a
one-byte status the device writes last. The bm-guest boots from this
interface ("the bootloader and kernel ... are stored remotely and only
accessible through the virtio-blk interface", Section 3.2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.sim.doorbell import Doorbell
from repro.virtio.device import Feature, VIRTIO_ID_BLOCK, VirtioDevice, feature_mask
from repro.virtio.steering import blk_queue_for_request

__all__ = [
    "VirtioBlkDevice",
    "BlkQueueDriver",
    "BlkIoError",
    "VIRTIO_BLK_F_MQ",
    "BlkRequestHeader",
    "SECTOR_BYTES",
    "VIRTIO_BLK_T_IN",
    "VIRTIO_BLK_T_OUT",
    "VIRTIO_BLK_T_FLUSH",
    "VIRTIO_BLK_S_OK",
    "VIRTIO_BLK_S_IOERR",
    "VIRTIO_BLK_S_UNSUPP",
]

SECTOR_BYTES = 512

VIRTIO_BLK_F_MQ = Feature.BLK_MQ  # feature bit 12

VIRTIO_BLK_T_IN = 0      # device -> driver (read)
VIRTIO_BLK_T_OUT = 1     # driver -> device (write)
VIRTIO_BLK_T_FLUSH = 4

VIRTIO_BLK_S_OK = 0
VIRTIO_BLK_S_IOERR = 1
VIRTIO_BLK_S_UNSUPP = 2

_HDR_FORMAT = "<IIQ"  # type, reserved, sector


@dataclass
class BlkRequestHeader:
    """``virtio_blk_req`` header (16 bytes)."""

    type: int
    sector: int
    reserved: int = 0

    SIZE = struct.calcsize(_HDR_FORMAT)

    def pack(self) -> bytes:
        return struct.pack(_HDR_FORMAT, self.type, self.reserved, self.sector)

    @classmethod
    def unpack(cls, data: bytes) -> "BlkRequestHeader":
        if len(data) < cls.SIZE:
            raise ValueError(f"short virtio-blk header: {len(data)} bytes")
        req_type, reserved, sector = struct.unpack(_HDR_FORMAT, data[: cls.SIZE])
        return cls(type=req_type, sector=sector, reserved=reserved)


class VirtioBlkDevice(VirtioDevice):
    """A virtio block device with ``n_queues`` request queues.

    The default is the historical single-queue device; with
    ``n_queues > 1`` the device offers ``VIRTIO_BLK_F_MQ`` and exposes
    a ``num_queues`` config field, mirroring how
    :class:`~repro.virtio.multiqueue.MultiQueueNetDevice` negotiates
    its queue pairs. Requests steer to a queue either explicitly
    (``queue_index=``) or by :func:`queue_for_request`'s blk-mq style
    key mapping.
    """

    device_id = VIRTIO_ID_BLOCK
    n_queues = 1

    def __init__(self, capacity_sectors: int = 2 * 1024 * 1024 * 2,
                 n_queues: int = 1, **kwargs):
        # Default 2 GiB of 512-byte sectors.
        if n_queues < 1:
            raise ValueError(f"need at least one request queue, got {n_queues}")
        # Instance attribute shadows the class default before the
        # queues are built (lazily, at FEATURES_OK) — exactly like the
        # MQ net device does with its pairs.
        self.n_queues = n_queues
        super().__init__(**kwargs)
        self.capacity_sectors = capacity_sectors
        self._config = {
            "capacity": capacity_sectors,
            "seg_max": 128,
            "blk_size": SECTOR_BYTES,
        }
        if n_queues > 1:
            self._config["num_queues"] = n_queues

    def offered_features(self) -> int:
        offered = super().offered_features() | feature_mask(
            Feature.BLK_SEG_MAX, Feature.BLK_BLK_SIZE, Feature.BLK_FLUSH
        )
        if self.n_queues > 1:
            # MQ is only offered when there is something to negotiate,
            # so a single-queue device stays bit-identical to the
            # historical one.
            offered |= feature_mask(VIRTIO_BLK_F_MQ)
        return offered

    @property
    def vq(self):
        return self.queue(0)

    def queue_for_request(self, key: int):
        """The request queue a submission key steers to (blk-mq style)."""
        return self.queue(blk_queue_for_request(key, self.n_queues))

    # -- driver-side helpers ---------------------------------------------------
    def driver_read(self, sector: int, nbytes: int, queue_index: int = 0) -> int:
        """Post a read request; returns the chain head."""
        self._check_range(sector, nbytes)
        header = BlkRequestHeader(type=VIRTIO_BLK_T_IN, sector=sector)
        return self.queue(queue_index).add_buffer([header.pack()], [nbytes, 1])

    def driver_write(self, sector: int, data: bytes,
                     queue_index: int = 0) -> int:
        """Post a write request; returns the chain head."""
        self._check_range(sector, len(data))
        header = BlkRequestHeader(type=VIRTIO_BLK_T_OUT, sector=sector)
        return self.queue(queue_index).add_buffer([header.pack(), data], [1])

    def driver_flush(self, queue_index: int = 0) -> int:
        header = BlkRequestHeader(type=VIRTIO_BLK_T_FLUSH, sector=0)
        return self.queue(queue_index).add_buffer([header.pack()], [1])

    def request_tracker(self, sim, policy=None, queue_index: int = 0):
        """Driver-side timeout/replay table for one request queue.

        Models blk-mq's per-request timer: a request that misses its
        deadline is re-kicked or replayed (see
        :mod:`repro.virtio.reliability`) so a backend crash cannot
        strand in-flight descriptors. Like blk-mq's per-hctx timers,
        each request queue gets its own table.
        """
        from repro.virtio.reliability import InflightTable, RetryPolicy

        return InflightTable(sim, self.queue(queue_index), policy or RetryPolicy())

    def _check_range(self, sector: int, nbytes: int) -> None:
        if nbytes % SECTOR_BYTES:
            raise ValueError(f"I/O size {nbytes} is not sector aligned")
        last = sector + nbytes // SECTOR_BYTES
        if sector < 0 or last > self.capacity_sectors:
            raise ValueError(
                f"request [{sector}, {last}) outside device of "
                f"{self.capacity_sectors} sectors"
            )

    # -- device-side helpers -----------------------------------------------------
    def device_fetch_request(self, queue_index: int = 0):
        """Pop one request: returns ``(chain, header, data)`` or None.

        ``data`` is the write payload for OUT requests and ``b""`` for
        IN/FLUSH. The final writable byte of the chain is the status.
        """
        vq = self.queue(queue_index)
        chain = vq.pop_avail()
        if chain is None:
            return None
        raw = vq.read_chain(chain)
        header = BlkRequestHeader.unpack(raw)
        data = raw[BlkRequestHeader.SIZE:]
        return chain, header, data

    def device_complete(self, chain, payload: bytes, status: int,
                        queue_index: int = 0) -> None:
        """Write the response payload + status byte and push used."""
        vq = self.queue(queue_index)
        response = payload + bytes([status])
        vq.write_chain(chain, response)
        vq.push_used(chain.head, len(response))


class BlkIoError(IOError):
    """A request completed with a status other than ``VIRTIO_BLK_S_OK``."""

    def __init__(self, head: int, status: int):
        super().__init__(f"request {head} completed with status {status}")
        self.head, self.status = head, status


class BlkQueueDriver:
    """The guest's driver for one request queue, on either substrate.

    Only what backs the queue differs. With ``bond`` (a bm-guest) a kick
    is a ``queue_notify`` forwarded through IO-Bond to the shadow vring;
    without (a vm-guest's shared vring) the PMD backend polls the ring,
    so a kick is EVENT_IDX bookkeeping only. The driver owns the used
    ring's poll: a :class:`Doorbell` on the ``poll_s`` cadence that the
    device rings on every used push, unhooked by :meth:`close`.
    """

    def __init__(self, sim, device: VirtioBlkDevice, poll_s: float,
                 queue_index: int = 0, bond=None):
        self.sim = sim
        self.device = device
        self.queue_index = queue_index
        self.vq = device.queue(queue_index)
        self._bond = bond
        self._port = None if bond is None else bond.port("blk")
        self.bell = Doorbell(sim, poll_s)
        self.vq.on_used = self.bell.ring

    def submit(self, sector: int, nbytes: int) -> int:
        """Post a read of ``nbytes`` at ``sector``; returns the chain head."""
        return self.device.driver_read(sector, nbytes, self.queue_index)

    def kick(self):
        """Process: tell the device the avail ring has new requests."""
        if self._bond is None:
            self.vq.needs_kick()
            return
        yield from self._bond.guest_pci_access(self._port, "queue_notify",
                                               self.queue_index)

    def wait(self, deadline: Optional[float] = None):
        """Process: reap the next used ``(head, written)``.

        Returns None instead at the first poll-grid tick at or after
        ``deadline`` if nothing completed. Callers match heads
        themselves. A non-OK status byte raises :class:`BlkIoError`.
        """
        vq, bell = self.vq, self.bell
        while True:
            used = vq.peek_used()
            if used is not None:
                status_addr, _ = vq.resolve_chain(used[0]).writable[-1]
                status = vq.memory.read(status_addr, 1)[0]
                vq.get_used()
                if status != VIRTIO_BLK_S_OK:
                    raise BlkIoError(used[0], status)
                return used
            if deadline is not None and self.sim.now >= deadline:
                return None
            yield bell.park(deadline)
            bell.cancel()

    def close(self) -> None:
        """Forget a parked wait and unhook the used ring."""
        self.bell.cancel()
        if self.vq.on_used == self.bell.ring:
            self.vq.on_used = None
