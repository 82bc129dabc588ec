"""The change-driven probe sweep equals the full sweep, byte for byte.

``Region._probe_loop`` probes only unsettled servers and parks while
none is; the reference (:mod:`tests.fleet.reference_probes`) probes
every server every interval. Both must give the same campaign reports,
and on a failover-shaped region the same audit log and the same
per-server health records: at every sweep the shipped loop runs, at
every instant a read-only sampler looks (half an interval off the
probe grid), and every reference sweep the shipped loop skipped must
have changed nothing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.region import RegionCampaignRunner
from repro.cloud.health import FleetHealth
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import Region, RegionSpec
from repro.sim import Simulator
from tests.fleet.reference_probes import full_sweep, reference_probes

SHIPPED_SWEEP = Region._probe_loop
SHIPPED_START = Region.start


def _state(region):
    """Every server's ``(state, consecutive_misses, last_probe_ok)``,
    and the audit log's head digest."""
    out = []
    for name in region._server_names:
        record = region.health._records.get(name)
        out.append(None if record is None else (
            record.state, record.consecutive_misses, record.last_probe_ok))
    return tuple(out), region.audit.head_digest()


def _recorded(loop, log):
    """``loop`` with the region's state logged around each sweep."""
    def sweep(region):
        sweeps = loop(region)
        while True:
            before = _state(region)
            event = next(sweeps)
            log.append((region.sim.now, before, _state(region)))
            yield event
    return sweep


def _sampler(region, log):
    """Process: log the region's state midway between probe ticks."""
    interval = region.spec.health.probe_interval_s
    yield region.sim.timeout(interval / 2)
    while True:
        log.append((region.sim.now, _state(region)))
        yield region.sim.timeout(interval)


def _sampled_start(log):
    def start(region, *args, **kwargs):
        SHIPPED_START(region, *args, **kwargs)
        region.sim.spawn(_sampler(region, log), name="test.sampler")
    return start


def _drill(monkeypatch, loop, spec, plan, seed=0):
    """Run ``spec`` under ``plan`` with ``loop`` as the probe sweep.

    Returns the region, the monitor suite, the per-sweep log and the
    sampler's log.
    """
    sweeps, samples = [], []
    monkeypatch.setattr(Region, "_probe_loop", _recorded(loop, sweeps))
    monkeypatch.setattr(Region, "start", _sampled_start(samples))
    outcome = RegionCampaignRunner(spec).run(seed, plan)
    return outcome.region, outcome.suite, sweeps, samples


def _assert_same_probing(shipped_sweeps, reference_sweeps):
    """Shipped sweeps match the reference's at their instants; the
    reference sweeps the shipped loop skipped wrote nothing."""
    by_instant = {entry[0]: entry for entry in reference_sweeps}
    assert len(by_instant) == len(reference_sweeps)
    ran = set()
    for entry in shipped_sweeps:
        assert by_instant[entry[0]] == entry
        ran.add(entry[0])
    for now, before, after in reference_sweeps:
        if now not in ran:
            assert before == after, f"skipped a sweep that wrote at {now}"


def _compare(monkeypatch, spec, plan, seed=0):
    """Drill the shipped and the full sweep; require equal probing.

    Returns the shipped region and suite, both per-sweep logs and the
    (shared) sampler log.
    """
    shipped, shipped_suite, shipped_sweeps, shipped_samples = _drill(
        monkeypatch, SHIPPED_SWEEP, spec, plan, seed)
    reference, reference_suite, reference_sweeps, reference_samples = \
        _drill(monkeypatch, full_sweep, spec, plan, seed)
    _assert_same_probing(shipped_sweeps, reference_sweeps)
    assert shipped_samples == reference_samples
    assert shipped.audit.entries() == reference.audit.entries()
    assert shipped.report() == reference.report()
    assert shipped_suite.violations == reference_suite.violations
    return (shipped, shipped_suite, shipped_sweeps, reference_sweeps,
            shipped_samples)


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
        shipped, suite, sweeps, reference_sweeps, samples = _compare(
            monkeypatch, FAILOVER_SPEC, FAILOVER_PLAN)
        assert len(samples) > 2000
        assert suite.ok
        # The drill does exercise the machine: all three faults led to
        # remediation, and the fleet ends healthy.
        assert len(shipped.pipeline.tickets) >= 3
        assert shipped.health.counts()["healthy"] == 32
        # The sweep ticks through incidents and parks in between.
        assert len(reference_sweeps) == 2400
        assert len(sweeps) < len(reference_sweeps) // 4

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


def _grid(ticks, interval=RegionSpec().health.probe_interval_s):
    """The probe grid's tick ``ticks``, chained as a ticking sweep's."""
    now = 0.0
    for _ in range(ticks):
        now += interval
    return now


class TestOnsetsOnTheGrid:
    """A fault landing exactly on a probe tick: a ticking sweep sees it
    on that tick when its timer was queued before the previous tick."""

    @pytest.mark.parametrize("first", [1, 2, 200])
    def test_onset_on_a_tick_matches_full_sweep(self, monkeypatch, first):
        # Each fault lands on a settled fleet, so on a parked sweep.
        onsets = [_grid(first + k * 80) for k in range(4)]
        plan = FaultPlan.of(
            FaultSpec(kind="correlated_board_hang", target="r0-s1",
                      at_s=onsets[0], duration_s=0.1),
            FaultSpec(kind="rack_power", target="rack-1",
                      at_s=onsets[1], duration_s=0.2),
            FaultSpec(kind="tor_down", target="tor-0",
                      at_s=onsets[2], duration_s=0.2),
            FaultSpec(kind="correlated_board_hang", target="r1-s0",
                      at_s=onsets[3], duration_s=0.0),
        )
        shipped, _, sweeps, _, _ = _compare(monkeypatch, _SMALL, plan)
        assert shipped.health.quarantines >= 5
        woken = {now for now, _, _ in sweeps}
        assert set(onsets[1:]) <= woken
        # The plan is armed after the first sweep queued tick 1, so a
        # fault on tick 1 is first seen on tick 2.
        assert (onsets[0] in woken) is (first > 1)

    def test_onset_at_the_arming_instant(self, monkeypatch):
        # No timer rings for it: unsettling the rack wakes the sweep.
        plan = FaultPlan.of(FaultSpec(kind="rack_power", target="rack-0",
                                      at_s=0.0, duration_s=0.2))
        shipped = _compare(monkeypatch, _SMALL, plan)[0]
        assert shipped.health.quarantines == 2

    def test_plan_armed_before_the_first_sweep(self):
        # Armed before the sweep starts, even tick 1 sees the onset.
        plan = FaultPlan.of(FaultSpec(kind="rack_power", target="rack-0",
                                      at_s=_grid(1), duration_s=0.2))

        def run():
            sim = Simulator(seed=3)
            region = Region(sim, _SMALL)
            region.arm_plan(plan)
            region.start()
            sim.run(until=1.0)
            return region

        shipped = run()
        with reference_probes():
            reference = run()
        assert shipped.audit.entries() == reference.audit.entries()
        assert shipped.audit.entries()[0].at_s == _grid(1)


class TestRandomPlans:
    @settings(max_examples=40, deadline=None)
    @given(plan=region_plans(), seed=st.integers(0, 2**16))
    def test_random_plan_matches_full_sweep(self, plan, seed):
        with pytest.MonkeyPatch.context() as mp:
            _compare(mp, _SMALL, plan, seed)

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
        shipped = _compare(monkeypatch, _SMALL, plan)[0]
        assert shipped.health.quarantines >= 2
