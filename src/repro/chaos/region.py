"""Correlated-failure campaigns against a whole region (DESIGN.md §13).

Where :class:`~repro.chaos.runner.CampaignRunner` drills one server's
datapaths, this runner drills the *control plane*: it samples a plan of
correlated faults (``rack_power``, ``tor_down``,
``correlated_board_hang``) from the region preset of
:class:`~repro.chaos.campaign.CampaignConfig`, lands it on a
:class:`~repro.fleet.region.Region` under full arrival/exit churn, and
checks the remediation invariants with the region monitor set while
the drill runs.

Campaigns assert *invariants*, not SLOs: a plan that takes out two
racks at once may legitimately shed load and even fail drains for want
of capacity, but placement must never select quarantined servers,
drains must resolve each guest exactly once, shedding must stay
tier-ordered, and every remediation ticket must close before the run
ends. Everything is a pure function of the campaign seed — same seed,
same plan, same report bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.chaos.campaign import CampaignConfig, CampaignGenerator
from repro.faults.spec import FaultPlan
from repro.fleet.monitors import region_monitors
from repro.fleet.region import Region, RegionSpec
from repro.sim import MonitorSuite, Simulator, Violation

__all__ = ["RegionCampaignOutcome", "RegionCampaignRunner"]


@dataclass
class RegionCampaignOutcome:
    """One region campaign: the plan, the drill, the verdict."""

    seed: int
    plan: FaultPlan
    region: Region
    suite: MonitorSuite

    @property
    def violations(self) -> List[Violation]:
        return self.suite.violations

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def report(self) -> Dict:
        """Deterministic JSON-able summary (simulated quantities only)."""
        return {
            "campaign_seed": self.seed,
            "n_faults": len(self.plan),
            "plan": self.plan.to_dict(),
            "region": self.region.report(),
            "monitor_samples": self.suite.samples,
            "violations": [str(v) for v in self.violations],
            "failed": self.failed,
        }

    def report_json(self) -> str:
        return json.dumps(self.report(), indent=2, sort_keys=True)


class RegionCampaignRunner:
    """Runs seeded correlated-failure campaigns over one region shape.

    The default region is smaller/shorter than the experiment's (10
    simulated seconds, faults inside the first 4) so a multi-seed sweep
    stays cheap in CI while leaving every remediation ticket enough
    tail to close — the monitors fail the campaign if one does not.
    """

    def __init__(self, spec: Optional[RegionSpec] = None,
                 config: Optional[CampaignConfig] = None,
                 monitor_period_s: float = 50e-3):
        self.spec = spec or RegionSpec(duration_s=10.0)
        self.config = config or CampaignConfig.region(
            racks=self.spec.rack_names(),
            tors=self.spec.tor_names(),
            servers=self.spec.server_names(),
        )
        self.generator = CampaignGenerator(self.config)
        self.monitor_period_s = monitor_period_s

    def run(self, seed: int,
            plan: Optional[FaultPlan] = None) -> RegionCampaignOutcome:
        plan = self.generator.plan(seed) if plan is None else plan
        sim = Simulator(seed=seed)
        region = Region(sim, self.spec)
        suite = MonitorSuite(sim, region_monitors(region),
                             period_s=self.monitor_period_s)
        suite.start()
        region.start()
        region.arm_plan(plan)
        sim.run(until=self.spec.duration_s)
        region.finalize()
        suite.finish()
        return RegionCampaignOutcome(
            seed=seed, plan=plan, region=region, suite=suite)

    def sweep(self, seeds) -> List[RegionCampaignOutcome]:
        return [self.run(seed) for seed in seeds]
