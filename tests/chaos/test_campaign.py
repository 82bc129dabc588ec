"""Campaign generation: seeded, enveloped, and serializable."""

import dataclasses

import pytest

from repro.chaos import CampaignConfig, CampaignGenerator
from repro.faults.spec import BACKEND_TARGETS, FAULT_KINDS, FaultPlan


@pytest.fixture
def gen():
    return CampaignGenerator()


class TestDeterminism:
    def test_same_seed_same_plan(self, gen):
        for seed in range(10):
            assert gen.plan(seed) == gen.plan(seed)

    def test_generation_is_order_independent(self, gen):
        forward = [gen.plan(s) for s in range(6)]
        backward = [gen.plan(s) for s in reversed(range(6))]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self, gen):
        plans = {gen.plan(seed) for seed in range(10)}
        assert len(plans) > 1


class TestEnvelopes:
    def test_counts_targets_and_horizon(self, gen):
        cfg = gen.config
        for seed in range(30):
            plan = gen.plan(seed)
            assert 1 <= len(plan) <= cfg.faults_max
            for fault in plan.schedule():
                assert fault.kind in FAULT_KINDS
                assert 0.0 <= fault.at_s <= cfg.horizon_s
                if fault.kind == "backend_disconnect":
                    assert fault.target in BACKEND_TARGETS
                elif fault.kind == "link_flap":
                    assert fault.target in cfg.fabric_links
                elif fault.kind == "switch_crash":
                    assert fault.target in cfg.fabric_switches
                else:
                    assert fault.target in cfg.targets

    def test_durations_stay_inside_config_ranges(self, gen):
        cfg = gen.config
        ranges = {
            "pcie_flap": cfg.flap_s,
            "dma_stall": cfg.stall_s,
            "mailbox_timeout": cfg.mailbox_window_s,
            "backend_disconnect": cfg.disconnect_s,
            "brownout": cfg.brownout_s,
            "link_flap": cfg.link_flap_s,
            "switch_crash": cfg.switch_down_s,
        }
        for seed in range(30):
            for fault in gen.plan(seed).schedule():
                if fault.kind == "hypervisor_crash":
                    assert fault.duration_s == 0.0
                    continue
                low, high = ranges[fault.kind]
                assert low <= fault.duration_s <= high
                if fault.kind == "brownout":
                    lo, hi = cfg.brownout_factor
                    assert lo <= fault.param <= hi

    def test_crash_spacing_enforced_per_target(self):
        # Tiny horizon + crash-only mix forces collisions; spacing must
        # drop all but the first crash per target.
        gen = CampaignGenerator(CampaignConfig(
            horizon_s=1e-3, faults_min=6, faults_max=6,
            kind_weights=(("hypervisor_crash", 1.0),),
            crash_spacing_s=80e-3,
        ))
        for seed in range(20):
            crashes = {}
            for fault in gen.plan(seed).schedule():
                crashes.setdefault(fault.target, []).append(fault.at_s)
            for times in crashes.values():
                gaps = [b - a for a, b in zip(times, times[1:])]
                assert all(gap >= 80e-3 for gap in gaps)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            CampaignConfig(horizon_s=0.0)
        with pytest.raises(ValueError, match="faults_min"):
            CampaignConfig(faults_min=5, faults_max=2)
        with pytest.raises(ValueError, match="target"):
            CampaignConfig(targets=())


class TestSerialization:
    def test_plan_json_round_trip_is_lossless(self, gen):
        for seed in range(20):
            plan = gen.plan(seed)
            assert FaultPlan.from_json(plan.to_json()) == plan


class TestShrinkHelpers:
    def test_without_removes_by_index(self, gen):
        plan = gen.plan(3)
        assert len(plan) >= 2
        smaller = plan.without(0)
        assert len(smaller) == len(plan) - 1
        assert plan.faults[0] not in smaller.faults or \
            plan.faults.count(plan.faults[0]) > 1
        assert plan.without(*range(len(plan))) == FaultPlan.none()

    def test_replacing_swaps_one_fault(self, gen):
        plan = gen.plan(3)
        replacement = dataclasses.replace(plan.faults[1], at_s=0.0)
        swapped = plan.replacing(1, replacement)
        assert swapped.faults[1].at_s == 0.0
        assert swapped.faults[0] == plan.faults[0]
        assert len(swapped) == len(plan)

    def test_describe_mentions_every_fault(self, gen):
        plan = gen.plan(5)
        text = plan.describe()
        assert len(text.splitlines()) == len(plan)
        for fault in plan.schedule():
            assert fault.kind in text
        assert FaultPlan.none().describe() == "(no faults)"
