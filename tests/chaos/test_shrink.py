"""Delta-debugging shrinker: minimal reproducers from noisy campaigns."""

import pytest

from repro.chaos import (
    CampaignConfig,
    CampaignGenerator,
    CampaignRunner,
    RegressionProbeMonitor,
    shrink_plan,
    sweep_campaign,
)
from repro.faults.spec import FaultPlan, FaultSpec


def _eight_fault_plan_with(*kinds):
    """A seeded 8-fault plan containing every requested kind."""
    gen = CampaignGenerator(CampaignConfig(faults_min=8, faults_max=8))
    for seed in range(200):
        plan = gen.plan(seed)
        present = {fault.kind for fault in plan.schedule()}
        # Crash spacing can drop draws; insist on a full 8-fault plan.
        if len(plan) == 8 and all(kind in present for kind in kinds):
            return seed, plan
    raise AssertionError(f"no seed in range produced kinds {kinds}")


def _needs_stall_and_flap(plan):
    kinds = {fault.kind for fault in plan.schedule()}
    return "dma_stall" in kinds and "pcie_flap" in kinds


class TestShrink:
    def test_eight_faults_reduce_to_two(self):
        seed, plan = _eight_fault_plan_with("dma_stall", "pcie_flap")
        outcome = shrink_plan(plan, _needs_stall_and_flap)
        assert outcome.original_faults == 8
        assert len(outcome.plan) == 2
        assert _needs_stall_and_flap(outcome.plan)
        assert not outcome.budget_exhausted
        assert outcome.removed == 6
        assert "8 -> 2" in outcome.summary()

    def test_result_is_one_minimal(self):
        _, plan = _eight_fault_plan_with("dma_stall", "pcie_flap")
        outcome = shrink_plan(plan, _needs_stall_and_flap)
        for index in range(len(outcome.plan)):
            assert not _needs_stall_and_flap(outcome.plan.without(index))

    def test_simplification_composes_to_trivial_faults(self):
        # The predicate only looks at kinds, so every timing/duration
        # field should simplify all the way down.
        _, plan = _eight_fault_plan_with("dma_stall", "pcie_flap")
        outcome = shrink_plan(plan, _needs_stall_and_flap)
        for fault in outcome.plan.schedule():
            assert fault.at_s == 0.0
            assert fault.duration_s == 0.0

    def test_single_culprit_shrinks_to_one_fault(self):
        _, plan = _eight_fault_plan_with("hypervisor_crash")
        outcome = shrink_plan(
            plan,
            lambda p: any(f.kind == "hypervisor_crash" for f in p.schedule()))
        assert len(outcome.plan) == 1
        assert outcome.plan.faults[0].kind == "hypervisor_crash"

    def test_budget_exhaustion_returns_best_so_far(self):
        _, plan = _eight_fault_plan_with("dma_stall", "pcie_flap")
        outcome = shrink_plan(plan, _needs_stall_and_flap, max_runs=3)
        assert outcome.budget_exhausted
        assert _needs_stall_and_flap(outcome.plan)  # never worse than input
        assert outcome.runs <= 3
        assert "budget exhausted" in outcome.summary()

    def test_non_failing_plan_rejected(self):
        plan = FaultPlan.of(
            FaultSpec(kind="brownout", target="g0", at_s=0.0,
                      duration_s=1e-3, param=0.5))
        with pytest.raises(ValueError, match="failing plan"):
            shrink_plan(plan, lambda p: False)

    def test_minimal_plan_round_trips_through_json(self):
        _, plan = _eight_fault_plan_with("dma_stall", "pcie_flap")
        outcome = shrink_plan(plan, _needs_stall_and_flap)
        assert FaultPlan.from_json(outcome.plan.to_json()) == outcome.plan


class TestMinimizedPlanReplay:
    def test_minimized_plan_replays_its_failure(self):
        """The reproducer the sweep dumps, loaded back, fails again."""
        payload = sweep_campaign(0, inject_regression=True, shrink_runs=40)
        plan = FaultPlan.from_json(payload["minimized_plan"]["json"])
        runner = CampaignRunner(
            extra_monitors=lambda ctx: [RegressionProbeMonitor(ctx.injector)])
        outcome = runner.run(0, plan=plan)
        assert outcome.failed
        assert {v.monitor for v in outcome.violations} == {"regression_probe"}
