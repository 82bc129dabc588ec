"""Seed-for-seed equivalence gate for doorbell idle-skip.

The doorbell quantizes wakeups onto the exact poll grid a busy-polling
loop would have used, so flipping idle-skip off (the reference
busy-poll behavior) must change *nothing observable*: same boot
records, same final clock, same RNG consumption — only the event count
moves. These tests run the two full-fidelity boot flows, a chaos
campaign, a region campaign and the multi-queue ablation both ways and require identical
outputs. Busy polling exists only as this reference: shipped runs
always idle-skip, and only tests select busy polling, through
``set_idle_skip_default``.
"""

import pytest

from repro.chaos import CampaignRunner
from repro.chaos.region import RegionCampaignRunner
from repro.core import VirtServer, vm_boot_via_rings
from repro.core.server import BmHiveServer
from repro.experiments import mq_ablation
from repro.guest import VmImage
from repro.sim import Simulator, set_idle_skip_default


@pytest.fixture(params=[True, False], ids=["idle_skip_on", "idle_skip_off"])
def idle_skip(request):
    old = set_idle_skip_default(request.param)
    yield request.param
    set_idle_skip_default(old)


def _bm_boot(seed):
    sim = Simulator(seed=seed)
    server = BmHiveServer(sim)
    guest = server.launch_guest()
    record = sim.run_process(server.boot_guest(guest, VmImage("centos7-cloud")))
    return sim, record


def _vm_boot(seed):
    sim = Simulator(seed=seed)
    server = VirtServer(sim)
    guest = server.launch_guest()
    record, stats = sim.run_process(vm_boot_via_rings(sim, guest, VmImage("centos7-cloud")))
    return sim, (record, stats)


def _both_modes(fn):
    """``(fn() with idle-skip, fn() busy-polling)``; restores the default."""
    old = set_idle_skip_default(True)
    try:
        skipped = fn()
        set_idle_skip_default(False)
        polled = fn()
    finally:
        set_idle_skip_default(old)
    return skipped, polled


class TestSeedForSeedEquivalence:
    @pytest.mark.parametrize("boot", [_bm_boot, _vm_boot], ids=["bm", "vm"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_boot_identical_with_and_without_idle_skip(self, boot, seed):
        (sim_on, result_on), (sim_off, result_off) = _both_modes(
            lambda: boot(seed))
        assert result_on == result_off
        assert sim_on.now == sim_off.now  # bit-identical, not approx
        # The whole point: the skip removes events, a lot of them.
        assert sim_on.stats.events_popped < sim_off.stats.events_popped / 5
        assert sim_off.stats.idle_poll_events > 0
        assert sim_on.stats.idle_poll_events == 0
        assert sim_on.stats.doorbell_parks > 0
        assert sim_on.stats.idle_polls_skipped > 0

    def test_boot_works_under_either_default(self, idle_skip):
        # Smoke both settings of the process-wide default.
        sim, record = _bm_boot(seed=3)
        assert record.boot_time_s > 0
        if idle_skip:
            assert sim.stats.doorbell_parks > 0
        else:
            assert sim.stats.idle_poll_events > 0


class TestSubsystemEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_chaos_campaign_report_identical(self, seed):
        skipped, polled = _both_modes(
            lambda: CampaignRunner().run(seed).report())
        assert skipped == polled

    @pytest.mark.parametrize("seed", [0, 1])
    def test_region_campaign_report_identical(self, seed):
        # The region's probe sweep parks on a settled fleet; busy
        # polling ticks it every interval.
        skipped, polled = _both_modes(
            lambda: RegionCampaignRunner().run(seed).report_json())
        assert skipped == polled

    def test_mq_ablation_rows_identical(self):
        skipped, polled = _both_modes(
            lambda: mq_ablation.run(seed=0, quick=True).rows)
        assert skipped == polled
