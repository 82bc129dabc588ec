"""Scalar reference executor for the vectorized churn engine.

The shipped :class:`~repro.fleet.churn.VectorizedChurnEngine` replays a
:class:`~repro.fleet.churn.ChurnPlan` in time buckets. This reference
replays the same plan one kernel event per arrival through the region's
own object path, and ``tests/fleet/test_churn.py`` requires byte-equal
``Region.report()`` between the two.
"""

from repro.cloud.admission import TIERS
from repro.fleet import ChurnPlan, Region


class ScalarChurnEngine:
    """Reference executor: one kernel event per plan arrival.

    Exactly the default ``_arrival_loop`` shape — ``timeout(gap)``,
    admit, place, spawn a per-guest lifetime process — except the draws
    come from the plan instead of interleaved scalar RNG calls. The
    kernel clock after the *i*-th gap equals ``plan.arrival_s[i]``
    bit-for-bit (float left folds associate identically).
    """

    def __init__(self, region: Region, plan: ChurnPlan):
        self.region = region
        self.plan = plan

    def start(self) -> None:
        self.region.sim.spawn(self._loop(), name="region.churn.scalar")

    def _loop(self):
        region = self.region
        sim = region.sim
        plan = self.plan
        gaps = plan.gap_s
        tiers = plan.tier_idx
        lifetimes = plan.lifetime_s
        for i in range(len(plan)):
            yield sim.timeout(float(gaps[i]))
            region._arrive(i, TIERS[tiers[i]], float(lifetimes[i]))
