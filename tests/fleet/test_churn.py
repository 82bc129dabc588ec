"""Vectorized churn engine ≡ scalar reference, by construction and test.

The scale benchmark is only trustworthy because the batched engine is
observably the scalar per-guest loop: same :class:`ChurnPlan` (one
canonical RNG draw order), same placements, same audit chain, same
``Region.report()`` byte for byte. These tests pin that equivalence —
array-ledger guests against the scalar reference's region guests
(``tests/fleet/scalar_churn.py``), at arbitrary batch widths — plus the
sampling invariants of the plan itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (ChurnPlan, GuestArrayLedger, Region, RegionSpec,
                         VectorizedChurnEngine)
from repro.fleet.region import TIERS
from repro.sim import Simulator
from tests.fleet.scalar_churn import ScalarChurnEngine


def _small_spec(**overrides) -> RegionSpec:
    base = dict(n_racks=2, servers_per_rack=2, boards_per_server=4,
                duration_s=3.0, arrival_rate_per_s=8.0,
                mean_lifetime_s=0.6, fabric=False)
    base.update(overrides)
    return RegionSpec(**base)


def _run_region(seed, spec, engine_factory):
    """Build a region, drive it with the given churn engine, report."""
    sim = Simulator(seed=seed)
    region = Region(sim, spec)
    plan = ChurnPlan.for_region(region)
    region.start(probes=False, arrivals=False)
    engine = engine_factory(region, plan)
    engine.start()
    sim.run(until=spec.duration_s)
    region.finalize()
    return region.report()


def _scalar(region, plan):
    return ScalarChurnEngine(region, plan)


class TestEngineEquivalence:
    def test_vectorized_arrays_matches_scalar(self):
        spec = _small_spec()
        reference = _run_region(3, spec, _scalar)
        arrays = _run_region(
            3, spec, lambda r, p: VectorizedChurnEngine(r, p,
                                                        guests="arrays"))
        assert arrays == reference

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           batch_ms=st.floats(min_value=1.0, max_value=4000.0))
    def test_property_equivalence_any_seed_and_batch_width(
            self, seed, batch_ms):
        """Batch width is a pure performance knob, never an observable."""
        spec = _small_spec(duration_s=2.0, arrival_rate_per_s=6.0)
        reference = _run_region(seed, spec, _scalar)
        vectorized = _run_region(
            seed, spec,
            lambda r, p: VectorizedChurnEngine(r, p, batch_s=batch_ms / 1e3))
        assert vectorized == reference

    def test_array_ledger_attached_only_in_arrays_mode(self):
        spec = _small_spec()
        sim = Simulator(seed=1)
        region = Region(sim, spec)
        plan = ChurnPlan.for_region(region)
        region.start(probes=False, arrivals=False)
        VectorizedChurnEngine(region, plan, guests="arrays").start()
        assert isinstance(region.guest_ledger, GuestArrayLedger)
        sim.run(until=spec.duration_s)
        assert region.running_guests() == region.guest_ledger.running_count()

    def test_rejects_unknown_guest_mode(self):
        spec = _small_spec()
        sim = Simulator(seed=1)
        region = Region(sim, spec)
        plan = ChurnPlan.for_region(region)
        for mode in ("objects", "bogus"):
            with pytest.raises(ValueError):
                VectorizedChurnEngine(region, plan, guests=mode)


class TestChurnPlan:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           rate=st.floats(min_value=0.5, max_value=200.0),
           duration=st.floats(min_value=0.1, max_value=20.0))
    def test_property_sample_invariants(self, seed, rate, duration):
        rng = np.random.default_rng(seed)
        plan = ChurnPlan.sample(rng, arrival_rate_per_s=rate,
                                mean_lifetime_s=1.0,
                                tier_mix=RegionSpec.tier_mix,
                                duration_s=duration)
        assert plan.duration_s == duration
        # Arrival times are the exact left-fold of the gaps and live
        # inside the window; lifetimes are positive; tiers valid.
        assert np.all(plan.arrival_s <= duration)
        assert np.all(np.diff(plan.arrival_s) >= 0)
        if len(plan):
            assert plan.arrival_s[0] == plan.gap_s[0]
            assert np.all(plan.lifetime_s > 0)
            assert plan.tier_idx.min() >= 0
            assert plan.tier_idx.max() < len(TIERS)
            assert plan.tier_idx.dtype == np.int8

    def test_sample_count_tracks_rate(self):
        rng = np.random.default_rng(0)
        plan = ChurnPlan.sample(rng, arrival_rate_per_s=1000.0,
                                mean_lifetime_s=1.0,
                                tier_mix=RegionSpec.tier_mix,
                                duration_s=10.0)
        assert 9_000 <= len(plan) <= 11_000

    def test_for_region_is_deterministic_per_seed(self):
        spec = _small_spec()

        def draw(seed):
            return ChurnPlan.for_region(Region(Simulator(seed=seed), spec))

        a, b, c = draw(5), draw(5), draw(6)
        assert np.array_equal(a.arrival_s, b.arrival_s)
        assert np.array_equal(a.tier_idx, b.tier_idx)
        assert not np.array_equal(a.arrival_s, c.arrival_s)


class TestGuestArrayLedger:
    def test_tier_stats_matches_object_accounting(self):
        """The ledger's per-tier census equals the guest-object census."""
        spec = _small_spec()
        reference = _run_region(9, spec, _scalar)
        arrays = _run_region(
            9, spec, lambda r, p: VectorizedChurnEngine(r, p,
                                                        guests="arrays"))
        assert arrays["tiers"] == reference["tiers"]

    def test_counts_empty_plan(self):
        rng = np.random.default_rng(0)
        plan = ChurnPlan.sample(rng, arrival_rate_per_s=0.001,
                                mean_lifetime_s=1.0,
                                tier_mix=RegionSpec.tier_mix,
                                duration_s=0.01)
        ledger = GuestArrayLedger(plan)
        assert ledger.running_count() == 0
        assert ledger.placed_count() == 0
        for tier in TIERS:
            stats = ledger.tier_stats(tier, now=0.01)
            assert stats["guests"] == 0.0
            assert stats["guest_seconds"] == 0.0
