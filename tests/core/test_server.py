"""Unit tests for BmHiveServer and VirtServer assembly."""

import pytest

from repro.backend import RateLimits
from repro.core import BmHiveServer, VirtServer
from repro.hw import ChassisSpec
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=8)


class TestBmHiveServer:
    def test_launch_wires_everything(self, sim):
        server = BmHiveServer(sim)
        guest = server.launch_guest()
        assert guest.board.is_on
        assert guest.bond.port("net") is not None
        assert guest.bond.port("blk") is not None
        assert guest.net_path is not None
        assert guest.blk_path is not None
        assert server.density == 1

    def test_density_cap_via_chassis(self, sim):
        server = BmHiveServer(sim, chassis_spec=ChassisSpec(max_slots=2,
                                                            power_budget_watts=1e6))
        server.launch_guest()
        server.launch_guest()
        with pytest.raises(RuntimeError, match="chassis full"):
            server.launch_guest()

    def test_sixteen_small_guests_coreside(self, sim):
        server = BmHiveServer(sim)
        for _ in range(16):
            server.launch_guest(cpu_model="Xeon E3-1240 v6", memory_gib=32)
        assert server.density == 16

    def test_guests_share_the_vswitch(self, sim):
        server = BmHiveServer(sim)
        a = server.launch_guest()
        b = server.launch_guest()
        assert a.net_path.vswitch is b.net_path.vswitch
        assert len(server.vswitch.ports) == 2

    def test_per_guest_hypervisor_process(self, sim):
        """'Every bm-hypervisor process provides service to one
        bm-guest only' (Section 3.2)."""
        server = BmHiveServer(sim)
        a = server.launch_guest()
        b = server.launch_guest()
        assert a.hypervisor is not b.hypervisor
        assert [g.hypervisor.guest_name for g in server.guests] == [
            a.name, b.name]

    def test_custom_limits_applied(self, sim):
        server = BmHiveServer(sim)
        guest = server.launch_guest(limits=RateLimits.unrestricted())
        assert guest.limiters.pps is None


class TestVirtServer:
    def test_launch_vm_guest(self, sim):
        server = VirtServer(sim)
        guest = server.launch_guest()
        assert guest.kind == "vm"
        assert guest.net_path is not None
        assert guest.pinned

    def test_unpinned_option(self, sim):
        server = VirtServer(sim)
        guest = server.launch_guest(pinned=False)
        assert not guest.pinned
        assert not guest.scheduler.pinned

    def test_shared_fabric_between_server_kinds(self, sim):
        hive = BmHiveServer(sim)
        kvm = VirtServer(sim, fabric=hive.fabric)
        assert "bmhive-0" in hive.fabric.nics
        assert "kvm-0" in hive.fabric.nics


class TestBlkHandler:
    def test_write_completes_unsupported_and_skips_storage(self):
        """The image is read-only: a write is not served as a read."""
        from repro.experiments.common import TestbedBuilder, boot_testbed
        from repro.virtio.blk import (VIRTIO_BLK_S_UNSUPP, BlkIoError,
                                      BlkQueueDriver)

        bed = boot_testbed(TestbedBuilder().seed(1).build())
        guest = bed.bm
        blk = guest.blk_device
        storage = bed.hive.storage
        submitted = list(storage.worker_submitted)
        driver = BlkQueueDriver(bed.sim, blk, 10e-6, bond=guest.bond)
        head = blk.driver_write(0, b"x" * 4096)

        def write():
            yield from driver.kick()
            yield from driver.wait()

        with pytest.raises(BlkIoError) as excinfo:
            bed.sim.run_process(write())
        assert (excinfo.value.head, excinfo.value.status) == (
            head, VIRTIO_BLK_S_UNSUPP)
        assert storage.worker_submitted == submitted
        assert blk.vq.peek_used() is None  # reaped, not left behind
        driver.close()
