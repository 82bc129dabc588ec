"""Tests for cold migration between service kinds."""

import pytest

from repro.core import BmHiveServer, VirtServer, cold_migrate_to_bm, cold_migrate_to_vm
from repro.guest import VmImage
from repro.sim import Simulator


@pytest.fixture
def world():
    sim = Simulator(seed=21)
    hive = BmHiveServer(sim)
    kvm = VirtServer(sim, fabric=hive.fabric)
    return sim, hive, kvm


class TestBmToVm:
    def test_migration_preserves_image(self, world):
        sim, hive, kvm = world
        image = VmImage("centos7-app")
        guest = hive.launch_guest(image=image)
        record = sim.run_process(cold_migrate_to_vm(sim, guest, hive, kvm))
        assert record.source_kind == "bm"
        assert record.target_kind == "vm"
        assert record.image_digest == image.digest()
        assert record.preserved_image

    def test_board_is_released(self, world):
        sim, hive, kvm = world
        guest = hive.launch_guest(image=VmImage("img"))
        boards_before = len(hive.chassis.boards)
        sim.run_process(cold_migrate_to_vm(sim, guest, hive, kvm))
        assert len(hive.chassis.boards) == boards_before - 1
        assert hive.density == 0
        assert len(kvm.guests) == 1

    def test_downtime_includes_boot(self, world):
        sim, hive, kvm = world
        guest = hive.launch_guest(image=VmImage("img"))
        record = sim.run_process(cold_migrate_to_vm(sim, guest, hive, kvm))
        assert record.downtime_s > 2.0  # control plane + boot

    def test_vm_boots_through_its_blk_device(self, world):
        """The firmware's boot reads run over the vm-guest's own ring."""
        sim, hive, kvm = world
        guest = hive.launch_guest(image=VmImage("img"))
        record = sim.run_process(cold_migrate_to_vm(sim, guest, hive, kvm))
        vm = kvm.guests[0]
        assert vm.name == record.target_name
        assert vm.blk_device.vq.used_idx == 8 + 256  # bootloader + kernel

    def test_migrating_imageless_guest_rejected(self, world):
        sim, hive, kvm = world
        guest = hive.launch_guest()  # no image
        with pytest.raises(ValueError, match="no image"):
            sim.run_process(cold_migrate_to_vm(sim, guest, hive, kvm))


class TestVmToBm:
    def test_round_trip_keeps_identity(self, world):
        sim, hive, kvm = world
        image = VmImage("roundtrip")
        vm = kvm.launch_guest(image=image)
        record = sim.run_process(cold_migrate_to_bm(sim, vm, kvm, hive))
        assert record.target_kind == "bm"
        assert record.image_digest == image.digest()
        assert hive.density == 1
        # The bm-guest actually booted the image through the real rings.
        new_guest = hive.guests[0]
        assert new_guest.image is image
        assert new_guest.hypervisor.state.value == "running"
