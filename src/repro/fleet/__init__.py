"""Synthetic fleet telemetry: exit census (Table 2), preemption (Fig 1)."""

from repro.fleet.exits import (
    TABLE2_PAPER_PERCENTS,
    TABLE2_THRESHOLDS,
    ExitCensus,
    run_exit_census,
)
from repro.fleet.demand import (
    PlacementStudy,
    TenantRequest,
    generate_demand,
    run_placement_study,
)
from repro.fleet.monitors import (
    DrainExactlyOnceMonitor,
    QuarantinePlacementMonitor,
    TierSheddingMonitor,
    region_monitors,
)
from repro.fleet.churn import (
    ChurnPlan,
    GuestArrayLedger,
    VectorizedChurnEngine,
)
from repro.fleet.preemption import PreemptionStudy, run_preemption_study
from repro.fleet.region import ARRIVAL_STREAM, Region, RegionGuest, RegionSpec

__all__ = [
    "Region",
    "RegionSpec",
    "RegionGuest",
    "ARRIVAL_STREAM",
    "ChurnPlan",
    "VectorizedChurnEngine",
    "GuestArrayLedger",
    "QuarantinePlacementMonitor",
    "DrainExactlyOnceMonitor",
    "TierSheddingMonitor",
    "region_monitors",
    "ExitCensus",
    "run_exit_census",
    "TABLE2_THRESHOLDS",
    "TABLE2_PAPER_PERCENTS",
    "PreemptionStudy",
    "run_preemption_study",
    "TenantRequest",
    "generate_demand",
    "PlacementStudy",
    "run_placement_study",
]
