"""Tests for live hypervisor upgrade (Orthus) and the KVM mitigations."""

import pytest

from repro.core import BmHiveServer
from repro.guest import VmImage
from repro.hypervisor import (
    KvmFeatureSet,
    KvmModel,
    KvmSpec,
    apply_features,
    effective_cpu_tax,
    live_upgrade,
    tuned_model,
)
from repro.sim import Simulator


class TestLiveUpgrade:
    @pytest.fixture
    def running_guest(self):
        sim = Simulator(seed=33)
        hive = BmHiveServer(sim)
        guest = hive.launch_guest()
        sim.run_process(hive.boot_guest(guest, VmImage("tenant")))
        return sim, hive, guest

    def test_upgrade_swaps_process_without_reboot(self, running_guest):
        sim, hive, guest = running_guest
        old = guest.hypervisor
        new_hv, record = sim.run_process(live_upgrade(sim, old, "2.0"))
        assert new_hv is not old
        assert new_hv.version == "2.0"
        assert record.guest_stayed_running
        assert guest.board.is_on  # no power cycle

    def test_ring_cursors_survive(self, running_guest):
        sim, hive, guest = running_guest
        before = {
            key: (s.registers.head, s.registers.tail)
            for key, s in guest.bond.port("blk").shadows.items()
        }
        new_hv, record = sim.run_process(live_upgrade(sim, guest.hypervisor))
        assert record.cursors_preserved
        after = {
            key: (s.registers.head, s.registers.tail)
            for key, s in guest.bond.port("blk").shadows.items()
        }
        assert before == after

    def test_gap_is_sub_second(self, running_guest):
        sim, hive, guest = running_guest
        _, record = sim.run_process(live_upgrade(sim, guest.hypervisor))
        assert record.service_gap_s < 0.2

    def test_new_hypervisor_keeps_serving(self, running_guest):
        """After the swap the poll loop still services the rings."""
        sim, hive, guest = running_guest
        new_hv, _ = sim.run_process(live_upgrade(sim, guest.hypervisor))
        guest.hypervisor = new_hv
        handled_before = new_hv.entries_handled
        from repro.virtio.blk import SECTOR_BYTES

        def io(sim):
            head = guest.blk_device.driver_read(0, SECTOR_BYTES)
            yield from guest.bond.guest_pci_access(
                guest.bond.port("blk"), "queue_notify", 0
            )
            yield sim.timeout(1e-3)

        sim.run_process(io(sim))
        assert new_hv.entries_handled > handled_before

    def test_upgrade_keeps_spec_layout_and_new_version(self):
        """The new build runs the old spec and worker layout."""
        from dataclasses import replace

        from repro.config.profile import HardwareProfile, QueueSpec
        from repro.hypervisor import BmHypervisorSpec

        profile = replace(
            HardwareProfile.paper(),
            bm_hypervisor=BmHypervisorSpec(poll_interval_s=4e-6),
            queues=QueueSpec(blk_queues=2, backend_workers=2,
                             passthrough=True))
        sim = Simulator(seed=36)
        hive = BmHiveServer(sim, profile=profile)
        guest = hive.launch_guest(name="up0")
        sim.run_process(hive.boot_guest(guest, VmImage("tenant")))
        old = guest.hypervisor
        new_hv, record = sim.run_process(live_upgrade(sim, old, "2.0"))
        assert new_hv.spec == old.spec
        assert new_hv.spec.poll_interval_s == 4e-6
        assert new_hv.passthrough
        assert (old.version, new_hv.version) == ("1.0", "2.0")
        assert (record.old_version, record.new_version) == ("1.0", "2.0")
        assert set(new_hv.workers) == {
            f"bmhv.up0.{name}" for name in ("mailbox", "blk.q0", "blk.q1")}

    def test_cannot_upgrade_stopped_guest(self):
        sim = Simulator(seed=34)
        hive = BmHiveServer(sim)
        guest = hive.launch_guest()
        guest.hypervisor.power_off(guest.board)
        with pytest.raises(RuntimeError, match="stopped"):
            sim.run_process(live_upgrade(sim, guest.hypervisor))

    def test_handlers_accessor_returns_a_copy(self, running_guest):
        """State capture enumerates the data plane through handlers().

        The accessor hands back a snapshot: mutating it must not
        unregister anything from the live hypervisor.
        """
        sim, hive, guest = running_guest
        hv = guest.hypervisor
        snapshot = hv.handlers()
        assert ("blk", 0) in snapshot
        snapshot.clear()
        assert ("blk", 0) in hv.handlers()

    def test_cursor_restore_survives_a_rebuilt_bond(self, running_guest):
        """Crash recovery may come up against re-initialized hardware.

        A fresh IO-Bond starts with zeroed shadow registers; restoring
        a capture into a hypervisor on that bond must write the saved
        cursors back explicitly (max() restore) instead of trusting
        the device to still hold them.
        """
        from repro.hypervisor.upgrade import HypervisorState
        from repro.iobond import IoBond

        sim, hive, guest = running_guest
        state = HypervisorState.capture(guest.hypervisor)
        saved = state.ring_cursors["blk.q0"]
        assert saved["head"] > 0  # boot traffic advanced the ring

        rebuilt = IoBond(sim, name="iobond-rebuilt")
        rebuilt.add_port("blk", guest.blk_device)
        replacement = state.respawn(sim, rebuilt)

        registers = rebuilt.port("blk").shadow(0).registers
        assert (registers.head, registers.tail) == (saved["head"],
                                                    saved["tail"])
        assert replacement.handlers().keys() == state.handlers.keys()

    def test_upgrade_under_blk_traffic_loses_nothing(self):
        """Orthus's headline property, under load.

        A closed-loop virtio-blk workload keeps issuing while the
        hypervisor is swapped mid-run. The quiesce drains in-flight
        service work, kicks published during the exec window are
        served by the replacement, and every descriptor completes
        exactly once — none lost, none duplicated.
        """
        from repro.faults import RingBlkLoad
        from repro.virtio.reliability import RetryPolicy

        sim = Simulator(seed=35)
        hive = BmHiveServer(sim)
        guest = hive.launch_guest()
        # Deadlines must outlive the ~63 ms exec window of the upgrade.
        load = RingBlkLoad(sim, guest, hive.storage, n_requests=24,
                           policy=RetryPolicy(timeout_s=20e-3, max_retries=5))
        load.install()

        swapped = {}

        def upgrade():
            yield sim.timeout(3 * 400e-6)  # a few requests in
            from repro.hypervisor.upgrade import HypervisorState
            captured = HypervisorState.capture(guest.hypervisor).ring_cursors
            new_hv, record = yield from live_upgrade(sim, guest.hypervisor)
            guest.hypervisor = new_hv
            swapped["record"] = record
            swapped["captured"] = captured
            swapped["restored"] = HypervisorState.capture(new_hv).ring_cursors

        sim.spawn(upgrade())
        records = sim.run_process(load.run())

        # Under live traffic the guest keeps publishing during the exec
        # window, so cursors may move *forward* past the capture — the
        # max() restore must never rewind them.
        for key, before in swapped["captured"].items():
            after = swapped["restored"][key]
            assert after["head"] >= before["head"]
            assert after["tail"] >= before["tail"]
        assert sorted(i for i, _, _, _ in records) == list(range(24))
        assert not load.failures
        assert load.duplicate_completions == 0
        assert guest.hypervisor.version == "2.0"


class TestKvmFeatures:
    def test_eli_slashes_injection_cost(self):
        spec = apply_features(KvmSpec(), KvmFeatureSet(exitless_interrupts=True))
        assert spec.irq_injection_cost_s == pytest.approx(1e-6)

    def test_halt_polling_trims_injection(self):
        stock = KvmSpec()
        polled = apply_features(stock, KvmFeatureSet(halt_polling=True))
        assert polled.irq_injection_cost_s < stock.irq_injection_cost_s

    def test_co_scheduling_removes_lock_holder_tax(self):
        assert effective_cpu_tax(KvmFeatureSet()) > 0
        assert effective_cpu_tax(KvmFeatureSet(co_scheduling=True)) == 0
        assert effective_cpu_tax(KvmFeatureSet(), smp_guest=False) == 0

    def test_tuned_model_still_pays_exits(self):
        """The paper's point: mitigations shrink, never erase, the gap."""
        tuned = tuned_model()
        assert tuned.spec.irq_injection_cost_s < KvmSpec().irq_injection_cost_s
        # Exit handling itself is untouched: 50K exits still cost half
        # the CPU even on a fully tuned hypervisor.
        assert tuned.cpu_efficiency(50_000) == pytest.approx(0.5)
        assert tuned.memory_bandwidth_factor() < 1.0

    def test_stock_and_tuned_presets(self):
        assert not any(
            (KvmFeatureSet.stock().halt_polling,
             KvmFeatureSet.stock().exitless_interrupts,
             KvmFeatureSet.stock().co_scheduling)
        )
        tuned = KvmFeatureSet.tuned()
        assert tuned.halt_polling and tuned.exitless_interrupts and tuned.co_scheduling
