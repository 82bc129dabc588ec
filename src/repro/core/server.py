"""Server assemblies: the BM-Hive server and the virtualization server.

:class:`BmHiveServer` is the paper's Fig 3 system: a base server
(vSwitch + SPDK + bm-hypervisor processes) hosting up to 16 compute
boards, each bridged by its own IO-Bond. :class:`VirtServer` is the
baseline: a dual-socket KVM host running vm-guests over shared-memory
virtio with the same user-space backends.

Both expose ``launch_guest`` returning a fully wired guest whose
``net_path`` / ``blk_path`` go through the respective datapaths.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.backend.dpdk import DpdkVSwitch
from repro.backend.fabric import Fabric
from repro.backend.limits import GuestLimiters, RateLimits
from repro.backend.spdk import SpdkStorage
from repro.config.profile import HardwareProfile
from repro.core.guests import BmGuest, VmGuest
from repro.core.paths import BmBlkPath, BmNetPath, VmBlkPath, VmNetPath
from repro.guest.firmware import EfiFirmware
from repro.guest.image import VmImage
from repro.hw.board import Chassis, ChassisSpec, ComputeBoard
from repro.hypervisor.bm import BmHypervisor
from repro.hypervisor.kvm import HostScheduler, KvmModel
from repro.iobond.bond import IoBond, IoBondSpec
from repro.sim.doorbell import Doorbell
from repro.virtio.blk import SECTOR_BYTES, VIRTIO_BLK_S_OK, BlkRequestHeader, VirtioBlkDevice
from repro.virtio.device import full_init
from repro.virtio.multiqueue import MultiQueueNetDevice
from repro.virtio.net import VirtioNetDevice

#: The virtqueue EFI firmware boots from. Firmware is single-threaded
#: and pre-MQ: even on an N-queue device it drives request queue 0, as
#: real EFI virtio-blk drivers do.
BOOT_QUEUE = 0

__all__ = ["BmHiveServer", "VirtServer"]


def _unique_mac(name: str) -> str:
    """Stable locally-administered MAC derived from the guest name."""
    import hashlib

    digest = hashlib.sha256(name.encode()).digest()
    return "52:54:00:" + ":".join(f"{b:02x}" for b in digest[:3])


class BmHiveServer:
    """One BM-Hive chassis: base + boards + per-guest bm-hypervisors."""

    def __init__(self, sim, fabric: Optional[Fabric] = None, name: str = "bmhive-0",
                 chassis_spec: Optional[ChassisSpec] = None,
                 iobond_spec: Optional[IoBondSpec] = None,
                 local_storage: bool = False,
                 profile: Optional[HardwareProfile] = None):
        self.sim = sim
        self.name = name
        self.profile = profile or HardwareProfile.paper()
        backend = self.profile.backend
        self.fabric = fabric or Fabric(sim, backend.fabric,
                                       topology=self.profile.topology)
        self.nic = self.fabric.attach(name)
        self.chassis = Chassis(sim, chassis_spec or self.profile.chassis)
        queues = self.profile.queues
        self.vswitch = DpdkVSwitch(sim, backend.dpdk, name=f"{name}.vswitch",
                                   poll_mode=backend.poll_mode,
                                   n_workers=queues.backend_workers)
        if self.fabric.routed:
            # Fabric reroutes must invalidate forwarding state pinned
            # to the uplink, not wait minutes for MAC aging.
            self.fabric.network.add_listener(
                self.vswitch.forwarding.handle_link_change)
        media = backend.local_media if local_storage else backend.cloud_media
        self.storage = SpdkStorage(
            sim, self.fabric, name, spec=backend.spdk, media=media,
            remote=not local_storage, n_workers=queues.backend_workers,
        )
        self.iobond_spec = iobond_spec or self.profile.iobond
        self.guests: List[BmGuest] = []
        self.hypervisors: Dict[str, BmHypervisor] = {}
        self._guest_ids = itertools.count()

    @property
    def density(self) -> int:
        """Number of co-resident bm-guests."""
        return len(self.guests)

    def launch_guest(self, cpu_model: Optional[str] = None,
                     memory_gib: Optional[int] = None,
                     limits: Optional[RateLimits] = None,
                     name: Optional[str] = None,
                     image: Optional[VmImage] = None) -> BmGuest:
        """Allocate a board, wire IO-Bond + backends, power on.

        The board is admitted against the chassis slot/power budgets,
        mirroring the 16-guest cap of the deployed system.
        """
        guest_spec = self.profile.guest
        cpu_model = cpu_model or guest_spec.cpu_model
        memory_gib = memory_gib if memory_gib is not None else guest_spec.memory_gib
        name = name or f"{self.name}.bm{next(self._guest_ids)}"
        limits = limits or RateLimits.standard()
        board = ComputeBoard(self.sim, cpu_model, memory_gib,
                             pcie_spec=self.profile.board_pcie)
        self.chassis.admit(board)

        bond = IoBond(self.sim, self.iobond_spec, name=f"{name}.iobond")
        queues = self.profile.queues
        if queues.net_queue_pairs > 1:
            net_device = MultiQueueNetDevice(
                n_queue_pairs=queues.net_queue_pairs, mac=_unique_mac(name),
                queue_size=guest_spec.virtio_queue_size)
        else:
            net_device = VirtioNetDevice(mac=_unique_mac(name),
                                         queue_size=guest_spec.virtio_queue_size)
        blk_device = VirtioBlkDevice(queue_size=guest_spec.virtio_queue_size,
                                     n_queues=queues.blk_queues)
        net_port = bond.add_port("net", net_device)
        blk_port = bond.add_port("blk", blk_device)

        hypervisor = BmHypervisor(self.sim, bond, guest_name=name,
                                  spec=self.profile.bm_hypervisor,
                                  passthrough=queues.passthrough)
        hypervisor.power_on(board)
        self.hypervisors[name] = hypervisor

        guest = BmGuest(
            self.sim, cpu_model, memory_gib, name=name,
            board=board, bond=bond, hypervisor=hypervisor,
            kernel_spec=guest_spec.kernel,
        )
        guest.net_device = net_device
        guest.blk_device = blk_device
        guest.firmware = EfiFirmware(self.sim)
        guest.image = image
        limiters = GuestLimiters(self.sim, limits, name=name)
        guest.limiters = limiters

        port_name = f"{name}.net"
        self.vswitch.add_port(port_name, limiters, mac=net_device.mac)
        guest.net_path = BmNetPath(
            self.sim, guest.kernel, self.vswitch, limiters, port_name,
            bond=bond, port=net_port, hv_spec=self.profile.bm_hypervisor,
        )
        guest.blk_path = BmBlkPath(
            self.sim, guest.kernel, self.storage, limiters,
            bond=bond, port=blk_port, hv_spec=self.profile.bm_hypervisor,
        )
        self.guests.append(guest)
        return guest

    # -- full-fidelity boot (used by examples and integration tests) -------
    def make_blk_handler(self, guest: BmGuest, image: VmImage,
                         queue_index: int = 0):
        """Backend handler for one of ``guest``'s virtio-blk queues.

        Each shadow-vring entry becomes a storage read serviced against
        ``image``: SPDK submit through the guest's rate limiters, sector
        payload assembly, completion write-back, and the IO-Bond DMA +
        MSI delivery. ``queue_index`` threads through to the shadow
        vring, the SPDK worker shard, and the completion delivery, so an
        N-queue device gets N independent handlers.
        """
        bond = guest.bond
        port = bond.port("blk")

        def handle_blk(entry):
            header = BlkRequestHeader.unpack(entry.payload)
            nbytes = max(0, entry.writable_bytes - 1)

            def service():
                yield from self.storage.submit(guest.limiters, max(nbytes, SECTOR_BYTES),
                                               is_read=True,
                                               queue_index=queue_index)
                data = b"".join(
                    image.read_sector(header.sector + i)
                    for i in range(nbytes // SECTOR_BYTES)
                )
                port.shadows[queue_index].backend_complete(
                    entry.guest_head, data + bytes([VIRTIO_BLK_S_OK])
                )
                yield from bond.deliver_completions(port, queue_index)

            return service()

        return handle_blk

    def boot_guest(self, guest: BmGuest, image: VmImage):
        """Process: boot ``guest`` from ``image`` through the real rings.

        Runs the whole Fig 6 machinery: the firmware posts virtio-blk
        reads, kicks through IO-Bond's emulated PCI function, the
        bm-hypervisor's poll loop services the shadow vring against
        cloud storage, and completions DMA back with an MSI.
        """
        blk = guest.blk_device
        bond = guest.bond
        port = bond.port("blk")
        hypervisor = guest.hypervisor
        full_init(blk)

        for qi in range(blk.n_queues):
            hypervisor.register_handler("blk", qi,
                                        self.make_blk_handler(guest, image, qi))
        hypervisor.mark_booting()
        hypervisor.start()

        # The firmware's used-ring poll (10 µs cadence) parks on its own
        # doorbell; IO-Bond writing back completions rings it. Firmware
        # only ever drives BOOT_QUEUE, even on an N-queue device.
        fw_poll_s = self.profile.poll.firmware_used_poll_s
        used_bell = Doorbell(self.sim, fw_poll_s)
        boot_vq = blk.queue(BOOT_QUEUE)
        boot_vq.on_used = used_bell.ring

        def io_roundtrip(sector, n_sectors):
            head = blk.driver_read(sector, n_sectors * SECTOR_BYTES,
                                   queue_index=BOOT_QUEUE)
            chain = boot_vq.resolve_chain(head)
            yield from bond.guest_pci_access(port, "queue_notify", BOOT_QUEUE)
            # The firmware polls the used ring (no interrupts in EFI).
            while True:
                used = boot_vq.get_used()
                if used is not None:
                    break
                if used_bell.enabled:
                    yield used_bell.park()
                else:
                    self.sim.stats.idle_poll_events += 1
                    yield self.sim.timeout(fw_poll_s)
            addr, length = chain.writable[0]
            return blk.memory.read(addr, length)

        record = yield from guest.firmware.boot(blk, image, io_roundtrip)
        used_bell.cancel()
        boot_vq.on_used = None
        hypervisor.mark_running()
        guest.image = image
        return record


class VirtServer:
    """The baseline KVM host: dual-socket, shared by vm-guests."""

    def __init__(self, sim, fabric: Optional[Fabric] = None, name: str = "kvm-0",
                 cpu_model: Optional[str] = None,
                 local_storage: bool = False,
                 profile: Optional[HardwareProfile] = None):
        self.sim = sim
        self.name = name
        self.profile = profile or HardwareProfile.paper()
        backend = self.profile.backend
        self.fabric = fabric or Fabric(sim, backend.fabric,
                                       topology=self.profile.topology)
        self.nic = self.fabric.attach(name)
        self.cpu_model = cpu_model or self.profile.guest.cpu_model
        queues = self.profile.queues
        self.vswitch = DpdkVSwitch(sim, backend.dpdk, name=f"{name}.vswitch",
                                   poll_mode=backend.poll_mode,
                                   n_workers=queues.backend_workers)
        if self.fabric.routed:
            self.fabric.network.add_listener(
                self.vswitch.forwarding.handle_link_change)
        media = backend.local_media if local_storage else backend.cloud_media
        self.storage = SpdkStorage(
            sim, self.fabric, name, spec=backend.spdk, media=media,
            remote=not local_storage, n_workers=queues.backend_workers,
        )
        self.kvm = KvmModel(self.profile.guest.kvm)
        self.guests: List[VmGuest] = []
        self._guest_ids = itertools.count()

    def launch_guest(self, cpu_model: Optional[str] = None,
                     memory_gib: Optional[int] = None,
                     limits: Optional[RateLimits] = None,
                     name: Optional[str] = None, pinned: bool = True,
                     image: Optional[VmImage] = None) -> VmGuest:
        """Create a vm-guest with the shared-memory virtio datapaths."""
        guest_spec = self.profile.guest
        memory_gib = memory_gib if memory_gib is not None else guest_spec.memory_gib
        name = name or f"{self.name}.vm{next(self._guest_ids)}"
        limits = limits or RateLimits.standard()
        scheduler = HostScheduler(self.sim, spec=guest_spec.host_scheduler,
                                  pinned=pinned, stream=f"host.{name}")
        guest = VmGuest(
            self.sim, cpu_model or self.cpu_model, memory_gib, name=name,
            kvm=self.kvm, scheduler=scheduler, pinned=pinned,
            kernel_spec=guest_spec.kernel,
        )
        guest.image = image
        limiters = GuestLimiters(self.sim, limits, name=name)
        guest.limiters = limiters

        port_name = f"{name}.net"
        self.vswitch.add_port(port_name, limiters)
        guest.net_path = VmNetPath(
            self.sim, guest.kernel, self.vswitch, limiters, port_name,
            kvm=self.kvm, scheduler=scheduler,
            backend_poll_s=self.profile.poll.vm_net_backend_poll_s,
        )
        guest.blk_path = VmBlkPath(
            self.sim, guest.kernel, self.storage, limiters,
            kvm=self.kvm, scheduler=scheduler,
            backend_poll_s=self.profile.poll.vm_blk_backend_poll_s,
        )
        self.guests.append(guest)
        return guest
