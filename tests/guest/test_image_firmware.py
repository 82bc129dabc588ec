"""Unit tests for VM images and the EFI firmware (signing + boot)."""

import hashlib

import pytest

from repro.experiments.common import DEFAULT_BOOT_IMAGE
from repro.guest import EfiFirmware, FirmwareImage, SignatureError, VmImage
from repro.guest.image import KERNEL_SECTOR, KERNEL_SECTORS
from repro.sim import Simulator
from repro.virtio.blk import SECTOR_BYTES


@pytest.fixture
def sim():
    return Simulator(seed=0)


class TestVmImage:
    def test_sector_reads_are_deterministic(self):
        image = VmImage("centos7")
        assert image.read_sector(0) == image.read_sector(0)
        assert len(image.read_sector(12345)) == SECTOR_BYTES

    def test_different_images_differ(self):
        assert VmImage("a").read_sector(0) != VmImage("b").read_sector(0)

    def test_out_of_range_sector_rejected(self):
        image = VmImage("centos7")
        with pytest.raises(ValueError):
            image.read_sector(image.size_sectors)

    def test_digest_stable_across_instances(self):
        """Cold migration invariant: same image -> same identity."""
        assert VmImage("centos7").digest() == VmImage("centos7").digest()
        assert VmImage("centos7").digest() != VmImage("ubuntu").digest()

    def test_bootloader_and_kernel_ranges_disjoint(self):
        image = VmImage("centos7")
        assert set(image.bootloader_range).isdisjoint(image.kernel_range)

    def test_sector_bytes_golden(self):
        """Pins the synthesized bytes: boot sectors, the two stored
        kernel sectors and 64 on-demand filesystem sectors."""
        image = VmImage(DEFAULT_BOOT_IMAGE)
        fs_start = KERNEL_SECTOR + KERNEL_SECTORS
        sectors = (list(image.bootloader_range)
                   + [KERNEL_SECTOR, KERNEL_SECTOR + KERNEL_SECTORS - 1]
                   + [fs_start + 131_071 * k for k in range(64)])
        digest = hashlib.sha256()
        for sector in sectors:
            data = image.read_sector(sector)
            assert len(data) == SECTOR_BYTES
            digest.update(data)
        assert digest.hexdigest() == (
            "30b4a146f59ecc29c88729c79ff231ae65ade64593b19d00b6b36be1903ccf78")


class TestFirmwareSigning:
    def test_valid_update_applies(self, sim):
        firmware = EfiFirmware(sim, vendor_key=b"key")
        image = FirmwareImage.signed("2.0", b"build", b"key")
        firmware.update(image)
        assert firmware.version == "2.0"
        assert firmware.updates_applied == 1

    def test_forged_update_rejected(self, sim):
        firmware = EfiFirmware(sim, vendor_key=b"key")
        with pytest.raises(SignatureError):
            firmware.update(FirmwareImage.forged("6.6", b"evil"))
        assert firmware.version == "1.0.0"
        assert firmware.update_attempts == 1
        assert firmware.updates_applied == 0

    def test_tampered_payload_rejected(self, sim):
        firmware = EfiFirmware(sim, vendor_key=b"key")
        signed = FirmwareImage.signed("2.0", b"build", b"key")
        tampered = FirmwareImage("2.0", b"bujld", signed.signature)
        with pytest.raises(SignatureError):
            firmware.update(tampered)

    def test_version_substitution_rejected(self, sim):
        """Replaying an old signature on a new version string fails."""
        firmware = EfiFirmware(sim, vendor_key=b"key")
        signed = FirmwareImage.signed("2.0", b"build", b"key")
        replayed = FirmwareImage("3.0", b"build", signed.signature)
        with pytest.raises(SignatureError):
            firmware.update(replayed)


def _shared_ring_boot(sim, firmware, served, booted):
    """Boot ``booted`` over a shared vring whose backend serves ``served``."""
    from types import SimpleNamespace

    from repro.core.vm_datapath import VmBlkService
    from repro.virtio.blk import BlkQueueDriver

    service = VmBlkService(sim, SimpleNamespace(), served)
    service.start()
    driver = BlkQueueDriver(sim, service.device, 10e-6)
    try:
        return sim.run_process(firmware.boot(driver, booted))
    finally:
        service.stop()
        driver.close()


class TestBoot:
    def test_boot_loads_bootloader_and_kernel(self, sim):
        firmware = EfiFirmware(sim)
        image = VmImage("centos7")
        record = _shared_ring_boot(sim, firmware, image, image)
        assert record.kernel_version == image.kernel_version
        assert record.bootloader_bytes == len(list(image.bootloader_range)) * SECTOR_BYTES
        assert record.kernel_bytes == len(list(image.kernel_range)) * SECTOR_BYTES
        assert record.stages[-1] == "kernel_entry"
        assert record.boot_time_s > 0.06  # EFI init + reads + handoff

    def test_corrupt_bootloader_detected(self, sim):
        """The device serves another image's sectors."""
        firmware = EfiFirmware(sim)
        with pytest.raises(IOError, match="corrupt"):
            _shared_ring_boot(sim, firmware, VmImage("other"),
                              VmImage("centos7"))
