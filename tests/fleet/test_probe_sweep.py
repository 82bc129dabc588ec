"""The change-driven probe sweep equals the full sweep, byte for byte.

``Region._probe_loop`` probes only unsettled servers; the reference
(:mod:`tests.fleet.reference_probes`) probes every server every
interval. Both must give the same campaign reports, and on a
failover-shaped region the same audit log and the same per-server
health records at every probe instant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.region import RegionCampaignRunner
from repro.cloud.health import FleetHealth
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import Region, RegionSpec
from tests.fleet.reference_probes import full_sweep, reference_probes

SHIPPED_SWEEP = Region._probe_loop


def _records(region):
    """Every server's ``(state, consecutive_misses, last_probe_ok)``."""
    out = []
    for name in region._server_names:
        record = region.health._records.get(name)
        out.append(None if record is None else (
            record.state, record.consecutive_misses, record.last_probe_ok))
    return tuple(out)


def _recorded(loop, log):
    """``loop`` with the region's health and audit logged after each sweep."""
    def sweep(region):
        for event in loop(region):
            log.append((region.sim.now, _records(region),
                        region.audit.head_digest()))
            yield event
    return sweep


def _drill(monkeypatch, loop, spec, plan, seed=0):
    """Run ``spec`` under ``plan`` with ``loop`` as the probe sweep."""
    log = []
    monkeypatch.setattr(Region, "_probe_loop", _recorded(loop, log))
    outcome = RegionCampaignRunner(spec).run(seed, plan)
    return outcome.region, outcome.suite, log


class TestCampaignReports:
    @pytest.mark.parametrize("seed", range(20))
    def test_report_equals_full_sweep(self, seed):
        runner = RegionCampaignRunner()
        shipped = runner.run(seed).report_json()
        with reference_probes():
            reference = runner.run(seed).report_json()
        assert shipped == reference


# A 32-server region at 85% occupancy with one fault of each region
# kind on three racks: the shape of perfbench's region_failover.
FAILOVER_SPEC = RegionSpec(
    n_racks=8, servers_per_rack=4, boards_per_server=8, duration_s=12.0,
    arrival_rate_per_s=0.85 * 256 / 2.5, mean_lifetime_s=2.5)
FAILOVER_PLAN = FaultPlan.of(
    FaultSpec(kind="rack_power", target="rack-2", at_s=2.3, duration_s=1.1),
    FaultSpec(kind="tor_down", target="tor-5", at_s=5.6, duration_s=0.6),
    FaultSpec(kind="correlated_board_hang", target="r7-s1", at_s=9.2,
              duration_s=0.3),
)


class TestFailoverShape:
    def test_every_probe_instant_matches_full_sweep(self, monkeypatch):
        shipped, shipped_suite, shipped_log = _drill(
            monkeypatch, SHIPPED_SWEEP, FAILOVER_SPEC, FAILOVER_PLAN)
        reference, reference_suite, reference_log = _drill(
            monkeypatch, full_sweep, FAILOVER_SPEC, FAILOVER_PLAN)
        assert len(shipped_log) == len(reference_log) > 2000
        for ours, theirs in zip(shipped_log, reference_log):
            assert ours == theirs
        assert shipped.audit.entries() == reference.audit.entries()
        assert shipped.report() == reference.report()
        assert shipped_suite.ok and reference_suite.ok
        # The drill does exercise the machine: all three faults led to
        # remediation, and the fleet ends healthy.
        assert len(shipped.pipeline.tickets) >= 3
        assert shipped.health.counts()["healthy"] == 32

    def test_settled_servers_are_skipped(self, monkeypatch):
        probed = []
        report_probe = FleetHealth.report_probe

        def counting(health, name, ok, cause="probe_miss"):
            probed.append(name)
            return report_probe(health, name, ok, cause)

        monkeypatch.setattr(FleetHealth, "report_probe", counting)
        _drill(monkeypatch, SHIPPED_SWEEP, FAILOVER_SPEC, FAILOVER_PLAN)
        sweeps = round(FAILOVER_SPEC.duration_s
                       / FAILOVER_SPEC.health.probe_interval_s)
        # A full sweep makes 32 probes an interval; faults unsettle a
        # few servers for a few hundred milliseconds each.
        assert len(probed) < sweeps * 32 // 10


_KINDS = ("rack_power", "tor_down", "correlated_board_hang")
_SMALL = RegionSpec(n_racks=2, servers_per_rack=2, boards_per_server=4,
                    duration_s=3.0, arrival_rate_per_s=12.0,
                    mean_lifetime_s=1.0)


@st.composite
def region_plans(draw):
    """Up to five region faults on a 2x2 region, overlaps included."""
    faults = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(_KINDS))
        rack = draw(st.integers(0, 1))
        if kind == "rack_power":
            target = f"rack-{rack}"
        elif kind == "tor_down":
            target = f"tor-{rack}"
        else:
            target = f"r{rack}-s{draw(st.integers(0, 1))}"
        faults.append(FaultSpec(
            kind=kind, target=target,
            at_s=draw(st.floats(0.0, 2.0, allow_nan=False)),
            duration_s=draw(st.floats(0.0, 0.8, allow_nan=False))))
    return FaultPlan.of(*faults)


class TestRandomPlans:
    @settings(max_examples=40, deadline=None)
    @given(plan=region_plans(), seed=st.integers(0, 2**16))
    def test_random_plan_matches_full_sweep(self, plan, seed):
        with pytest.MonkeyPatch.context() as mp:
            shipped, _, shipped_log = _drill(
                mp, SHIPPED_SWEEP, _SMALL, plan, seed)
            reference, _, reference_log = _drill(
                mp, full_sweep, _SMALL, plan, seed)
        assert shipped_log == reference_log
        assert shipped.report() == reference.report()

    def test_overlapping_faults_on_one_rack(self, monkeypatch):
        plan = FaultPlan.of(
            FaultSpec(kind="rack_power", target="rack-0", at_s=0.5,
                      duration_s=0.6),
            FaultSpec(kind="rack_power", target="rack-0", at_s=0.8,
                      duration_s=0.6),
            FaultSpec(kind="tor_down", target="tor-0", at_s=0.7,
                      duration_s=0.9),
            FaultSpec(kind="correlated_board_hang", target="r0-s1",
                      at_s=1.0, duration_s=0.5),
        )
        shipped, _, shipped_log = _drill(
            monkeypatch, SHIPPED_SWEEP, _SMALL, plan)
        reference, _, reference_log = _drill(
            monkeypatch, full_sweep, _SMALL, plan)
        assert shipped_log == reference_log
        assert shipped.audit.entries() == reference.audit.entries()
        assert shipped.report() == reference.report()
        assert shipped.health.quarantines >= 2
