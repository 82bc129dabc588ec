"""Tests for the shared-memory (vhost) vm-guest ring integration."""

import pytest

from repro.core import VirtServer, VmBlkService, vm_boot_via_rings
from repro.guest import VmImage
from repro.sim import Simulator
from repro.virtio import VirtioBlkDevice, full_init
from repro.virtio.blk import BlkQueueDriver


@pytest.fixture
def world():
    sim = Simulator(seed=51)
    kvm = VirtServer(sim)
    return sim, kvm.launch_guest()


class TestVmRingBoot:
    def test_boots_the_same_image_as_the_bm_path(self, world):
        sim, vm = world
        image = VmImage("centos7")
        record, stats = sim.run_process(vm_boot_via_rings(sim, vm, image))
        assert record.kernel_version == image.kernel_version
        assert record.stages[-1] == "kernel_entry"
        assert stats.requests_served == 8 + 256  # bootloader + kernel chunks
        assert stats.bytes_returned >= 8 << 20
        assert vm.image is image

    def test_no_kicks_needed_with_pmd_backend(self, world):
        """The shared-memory ring is polled; EVENT_IDX suppresses
        every notification after the first."""
        sim, vm = world
        _, stats = sim.run_process(vm_boot_via_rings(sim, vm, VmImage("img")))
        # The backend consumes each request before the next is posted,
        # so suppression bookkeeping stays consistent (never negative).
        assert stats.kicks_suppressed >= 0

    def test_interoperability_same_image_both_substrates(self):
        """One image, booted through both ring implementations."""
        from repro.core import BmHiveServer

        image = VmImage("shared")
        sim = Simulator(seed=52)
        hive = BmHiveServer(sim)
        bm = hive.launch_guest()
        bm_record = sim.run_process(hive.boot_guest(bm, image))
        kvm = VirtServer(sim, fabric=hive.fabric)
        vm = kvm.launch_guest()
        vm_record, _ = sim.run_process(vm_boot_via_rings(sim, vm, image))
        assert bm_record.kernel_bytes == vm_record.kernel_bytes
        assert bm_record.kernel_version == vm_record.kernel_version

    def test_service_lifecycle(self, world):
        sim, vm = world
        service = VmBlkService(sim, vm, VmImage("img"))
        service.start()
        with pytest.raises(RuntimeError, match="already started"):
            service.start()
        service.stop()
        service.stop()  # idempotent

    def test_vhost_handshake_completed(self, world):
        sim, vm = world
        service = VmBlkService(sim, vm, VmImage("img"))
        assert service.vhost_backend.ring_ready(0)
        assert service.vhost_frontend.negotiated is not None


def _read_each(sim, driver, requests):
    """Read every ``(sector, nbytes)`` in turn through ``driver``."""
    def reads():
        out = []
        for sector, nbytes in requests:
            head = driver.submit(sector, nbytes)
            addr, length = driver.vq.resolve_chain(head).writable[0]
            yield from driver.kick()
            used = yield from driver.wait()
            assert used == (head, nbytes + 1)
            out.append(driver.vq.memory.read(addr, length))
        return out

    return sim.run_process(reads())


class TestOneDriverTwoSubstrates:
    def test_same_driver_reads_the_same_sectors_over_both_rings(self):
        """IO-Bond's shadow vring (bm) and the shared vring (vm) serve
        one image byte for byte to the same driver class."""
        from repro.core import BmHiveServer

        image = VmImage("shared")
        requests = [(0, 512), (2048, 4096), (123_457, 32 * 1024)]
        sim = Simulator(seed=53)
        hive = BmHiveServer(sim)
        bm = hive.launch_guest()
        sim.run_process(hive.boot_guest(bm, image))
        bm_driver = BlkQueueDriver(sim, bm.blk_device, 10e-6, bond=bm.bond)
        bm_data = _read_each(sim, bm_driver, requests)
        bm_driver.close()

        vm = VirtServer(sim, fabric=hive.fabric).launch_guest()
        service = VmBlkService(sim, vm, image)
        service.start()
        vm_driver = BlkQueueDriver(sim, service.device, 10e-6)
        vm_data = _read_each(sim, vm_driver, requests)
        service.stop()
        vm_driver.close()

        assert type(bm_driver) is type(vm_driver)
        assert bm_data == vm_data == [image.read(s, n) for s, n in requests]

    def test_kick_on_the_shared_ring_is_suppressed(self, world):
        sim, vm = world
        service = VmBlkService(sim, vm, VmImage("img"))
        service.start()
        driver = BlkQueueDriver(sim, service.device, 10e-6)
        driver.submit(0, 512)
        sim.run()  # the backend serves it and parks
        vq = service.device.vq
        suppressed = vq.kicks_suppressed
        pushed = sim.stats.as_dict()["events_pushed"]
        assert list(driver.kick()) == []
        assert vq.kicks_suppressed == suppressed + 1
        assert sim.stats.as_dict()["events_pushed"] == pushed

    @pytest.mark.parametrize("idle_skip", [True, False],
                             ids=["idle_skip_on", "idle_skip_off"])
    def test_wait_gives_up_at_the_first_grid_tick_past_the_deadline(
            self, idle_skip):
        from repro.sim import set_idle_skip_default

        old = set_idle_skip_default(idle_skip)
        try:
            sim = Simulator(seed=54)
            device = full_init(VirtioBlkDevice())
            driver = BlkQueueDriver(sim, device, 10e-6)
            driver.submit(0, 512)  # nobody serves it
            sim.run(until=3e-6)
            deadline = sim.now + 35e-6
            assert sim.run_process(driver.wait(deadline)) is None
        finally:
            set_idle_skip_default(old)
        tick = 3e-6
        while tick < deadline:
            tick += 10e-6
        assert sim.now == tick
        assert device.vq.peek_used() is None
