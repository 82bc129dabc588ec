"""Operational integration tests: testbed, console, full-scale runs."""

import pytest

from repro.core import BmHiveServer
from repro.experiments.common import make_testbed
from repro.sim import Simulator
from repro.virtio import VirtioConsoleDevice, full_init


class TestTestbedContract:
    def test_testbed_matches_section_41(self):
        bed = make_testbed(seed=5)
        for guest in (bed.bm, bed.vm):
            assert guest.cpu_spec.model == "Xeon E5-2682 v4"
            assert guest.memory.spec.capacity_gib == 64
        assert bed.vm.pinned  # "exclusive instance and pinned"
        assert bed.physical.sockets == 2
        assert bed.bm.name != bed.bm_peer.name

    def test_guests_share_one_fabric(self):
        bed = make_testbed(seed=5)
        assert bed.hive.fabric is bed.kvm.fabric


class TestConsoleThroughTheStack:
    def test_operator_reads_guest_console_via_iobond(self):
        """The Section 3.4.2 console feature, end to end: guest output
        crosses IO-Bond's shadow vring to the bm-hypervisor side."""
        sim = Simulator(seed=121)
        hive = BmHiveServer(sim)
        guest = hive.launch_guest()
        console = full_init(VirtioConsoleDevice())
        port = guest.bond.add_port("console", console)
        console.driver_write("Kernel panic - not syncing\n")
        staged = sim.run_process(guest.bond.sync_to_shadow(port, 1))
        assert staged == 1
        entry = port.shadow(1).backend_poll()
        assert b"Kernel panic" in entry.payload


class TestFullScaleSpotChecks:
    def test_table2_at_paper_population(self):
        """quick=False runs the census at the paper's 300K VMs."""
        from repro.experiments import table2

        result = table2.run(seed=0, quick=False)
        assert result.passed
        assert result.rows[0]["percent_of_vms"] == pytest.approx(3.82, abs=0.3)

    def test_fig1_at_larger_population(self):
        from repro.experiments import fig1

        result = fig1.run(seed=0, quick=False)
        assert result.passed
