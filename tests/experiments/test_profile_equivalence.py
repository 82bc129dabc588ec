"""Seed-for-seed equivalence gate for refactors of the simulated paths.

``golden_paper_profile.json`` was captured from the pre-refactor tree
(module-level constants, ad-hoc ``make_testbed`` wiring). The refactor
threads :class:`HardwareProfile` through every layer; under the
``paper()`` preset the experiments must reproduce those rows bit for
bit, and a deterministic datapath run must land on the exact same
simulator clocks.

The rows of ``mq_ablation``, ``fault_isolation``, ``future_work`` and
``chaos_campaign`` were captured before the block request path was
folded into one backend handler and one guest driver; they pin the
experiments that drive that path through real rings. The
``region_resilience`` rows were captured before the region's probe
sweep started skipping settled servers; its BENCH columns round the
latencies and cannot show a row change. The ``cross_rack`` and
``incast`` rows were captured before route trees became lazy, per
source and per topology version; a changed tie-break would move their
paths, which their BENCH entries cannot show.
"""

import json
import os

import pytest

from repro.config import HardwareProfile
from repro.experiments import ablations
from repro.experiments.common import TestbedBuilder, make_testbed

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_paper_profile.json")
GOLDEN_EXPERIMENTS = ("iobond_micro", "fig9", "fig11", "table1", "fig7",
                      "mq_ablation", "fault_isolation", "future_work",
                      "chaos_campaign", "region_resilience", "cross_rack",
                      "incast")

# Clocks from a deterministic pre-refactor run on make_testbed(seed=123):
# sim.now after a 32-packet net burst plus one bm blk read and one vm blk
# write, the two blk latencies, and the bm/vm one-way latency samples.
# The DES is exact, so equality here is ==, not approx.
GOLDEN_CLOCKS = (
    0.00041770524849494043,
    0.00016504714702427856,
    0.00015023666147066187,
    1.4711051556520748e-05,
    1.5477295060359972e-05,
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class TestPaperProfileEquivalence:
    @pytest.mark.parametrize("exp_id", sorted(GOLDEN_EXPERIMENTS))
    def test_rows_bit_identical_to_pre_refactor(self, golden, exp_id,
                                                experiment_results):
        result = experiment_results[exp_id]
        assert result.rows == golden[exp_id]["rows"]
        observed = [(c.name, c.passed) for c in result.checks]
        expected = [tuple(c) for c in golden[exp_id]["checks"]]
        assert observed == expected

    def test_datapath_clocks_bit_identical(self):
        bed = make_testbed(seed=123)
        bed.sim.run_process(bed.bm.net_path.send_burst(
            32, 1500, dst_port=f"{bed.bm_peer.name}.net"))
        bm_read = bed.sim.run_process(bed.bm.blk_path.io(4096, is_read=True))
        vm_write = bed.sim.run_process(bed.vm.blk_path.io(4096, is_read=False))
        bm_sample = bed.bm.net_path.one_way_latency_sample(64)
        vm_sample = bed.vm.net_path.one_way_latency_sample(64)
        got = (bed.sim.now, bm_read.latency_s, vm_write.latency_s,
               bm_sample, vm_sample)
        assert got == GOLDEN_CLOCKS

    def test_builder_default_equals_make_testbed(self):
        via_builder = TestbedBuilder().seed(123).build()
        via_helper = make_testbed(seed=123)
        assert [g.name for g in via_builder.bm_guests] == \
               [g.name for g in via_helper.bm_guests]
        for bed in (via_builder, via_helper):
            bed.sim.run_process(bed.bm.net_path.send_burst(
                32, 1500, dst_port=f"{bed.bm_peer.name}.net"))
        assert via_builder.sim.now == via_helper.sim.now


class TestAsicProfileEndToEnd:
    def test_ablation_runs_asic_profile_with_lower_latency(self):
        result = ablations.run(seed=0, quick=True)
        by_name = {row["ablation"]: row["value"] for row in result.rows
                   if row["ablation"].startswith("IO-Bond")}
        assert by_name["IO-Bond ASIC"] < by_name["IO-Bond FPGA"]
        assert next(c for c in result.checks
                    if c.name == "ASIC trims storage latency").passed

    def test_asic_testbed_cuts_blk_latency(self):
        def blk_clock(profile):
            bed = make_testbed(seed=7, profile=profile)
            start = bed.sim.now
            bed.sim.run_process(bed.bm.blk_path.io(4096, is_read=True))
            return bed.sim.now - start

        paper = blk_clock(HardwareProfile.paper())
        asic = blk_clock(HardwareProfile.asic())
        assert asic < paper

    def test_gen4_testbed_widens_device_links(self):
        bed = make_testbed(seed=7, profile=HardwareProfile.gen4())
        link = bed.bm.bond.port("net").board_link
        assert link.spec.bandwidth_bps == pytest.approx(64e9)  # x4 @ 16 Gb/s
