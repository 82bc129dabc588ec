"""Cold migration between the bare-metal and VM services.

"Interoperability requires that a bm-guest can be run in a VM as well.
We call this feature cold migration... A prerequisite of cold migration
is that bm-guests must be able to connect to the cloud storage and
network" (Section 3.1). Because the image lives in cloud storage and
both services boot it through virtio, migration is: stop here, boot
there, same image. Both directions boot through the same firmware and
blk driver: :meth:`BmHiveServer.boot_guest` over IO-Bond, and
:func:`~repro.core.vm_datapath.vm_boot_via_rings` over the shared vring.

(The paper explicitly does *not* support live migration of bm-guests —
Section 6 discusses a prototype and its drawbacks — so only cold
migration is modelled.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.guests import BmGuest, VmGuest
from repro.core.server import BmHiveServer, VirtServer
from repro.core.vm_datapath import vm_boot_via_rings
from repro.guest.image import VmImage

__all__ = ["MigrationRecord", "cold_migrate_to_vm", "cold_migrate_to_bm"]


@dataclass
class MigrationRecord:
    """Outcome of one cold migration."""

    source_kind: str
    target_kind: str
    image_digest: str
    downtime_s: float
    target_name: str

    @property
    def preserved_image(self) -> bool:
        return bool(self.image_digest)


def _check_kernel(guest_name: str, record, image: VmImage) -> None:
    if record.kernel_version != image.kernel_version:
        raise ValueError(
            f"{guest_name} booted kernel {record.kernel_version!r}, "
            f"image carries {image.kernel_version!r}")


def cold_migrate_to_vm(sim, guest: BmGuest, server: BmHiveServer,
                       target: VirtServer):
    """Process: move a bm-guest's image to a vm-guest on ``target``."""
    image = guest.image
    if image is None:
        raise ValueError(f"guest {guest.name} has no image to migrate")
    start = sim.now
    guest.hypervisor.stop()
    guest.hypervisor.power_off(guest.board)
    server.chassis.remove(guest.board)
    server.guests.remove(guest)
    yield sim.timeout(2.0)  # control-plane: deallocate + schedule
    vm = target.launch_guest(memory_gib=guest.memory.spec.capacity_gib,
                             image=image, name=f"{guest.name}.as-vm")
    record, _ = yield from vm_boot_via_rings(sim, vm, image,
                                             profile=target.profile)
    _check_kernel(vm.name, record, image)
    return MigrationRecord(
        source_kind="bm",
        target_kind="vm",
        image_digest=image.digest(),
        downtime_s=sim.now - start,
        target_name=vm.name,
    )


def cold_migrate_to_bm(sim, guest: VmGuest, server: VirtServer,
                       target: BmHiveServer):
    """Process: move a vm-guest's image onto a compute board."""
    image = guest.image
    if image is None:
        raise ValueError(f"guest {guest.name} has no image to migrate")
    start = sim.now
    server.guests.remove(guest)
    yield sim.timeout(2.0)  # control-plane: deallocate + schedule
    bm = target.launch_guest(memory_gib=guest.memory.spec.capacity_gib,
                             image=image, name=f"{guest.name}.as-bm")
    record = yield from target.boot_guest(bm, image)
    _check_kernel(bm.name, record, image)
    return MigrationRecord(
        source_kind="vm",
        target_kind="bm",
        image_digest=image.digest(),
        downtime_s=sim.now - start,
        target_name=bm.name,
    )
