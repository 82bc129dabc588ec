"""Every installed monitor is an :class:`repro.sim.InvariantMonitor`.

The eleven monitors live in three layers (``chaos``, ``fabric``,
``fleet``) and share the one base in :mod:`repro.sim.monitors`; the
suites that install them must hand the sampler nothing else.
"""

from repro.chaos import CampaignRunner, RegressionProbeMonitor, ScenarioSpec
from repro.faults import FaultPlan
from repro.fleet import Region, RegionSpec
from repro.fleet.monitors import region_monitors
from repro.sim import InvariantMonitor, Simulator


def test_campaign_runner_installs_only_invariant_monitors():
    runner = CampaignRunner(
        scenario=ScenarioSpec(n_requests=4),
        extra_monitors=lambda ctx: [RegressionProbeMonitor(ctx.injector)])
    outcome = runner.run(0, plan=FaultPlan.none())
    for ctx in (outcome.chaos, outcome.baseline):
        monitors = ctx.suite.monitors
        assert all(isinstance(m, InvariantMonitor) for m in monitors)
        assert {type(m).__name__ for m in monitors} == {
            "ExactlyOnceRingMonitor", "ShadowSyncMonitor",
            "ConservationMonitor", "AvailabilityMonitor",
            "QuiescenceMonitor", "RegressionProbeMonitor",
            "RoutingInvariantMonitor", "TransferConservationMonitor",
        }


def test_region_monitors_are_invariant_monitors():
    spec = RegionSpec(n_racks=2, servers_per_rack=2, boards_per_server=4,
                      duration_s=1.0)
    monitors = region_monitors(Region(Simulator(seed=0), spec))
    assert all(isinstance(m, InvariantMonitor) for m in monitors)
    assert {type(m).__name__ for m in monitors} == {
        "QuarantinePlacementMonitor", "DrainExactlyOnceMonitor",
        "TierSheddingMonitor",
    }
