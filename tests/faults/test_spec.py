"""Tests for the frozen fault-plan configuration layer."""

import pytest

from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec


def _crash(target="g0", at_s=1e-3, **kw):
    return FaultSpec(kind="hypervisor_crash", target=target, at_s=at_s, **kw)


class TestFaultSpecValidation:
    def test_known_kinds_construct(self):
        shaped = {"backend_disconnect": "storage",
                  "link_flap": "spine-0|tor-0",
                  "switch_crash": "spine-0",
                  "rack_power": "rack-0",
                  "tor_down": "tor-0"}
        for kind in FAULT_KINDS:
            target = shaped.get(kind, "g0")
            param = 0.5 if kind == "brownout" else 0.0
            FaultSpec(kind=kind, target=target, at_s=0.0, param=param)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="cosmic_ray", target="g0", at_s=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            _crash(at_s=-1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            _crash(duration_s=-1e-3)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            FaultSpec(kind="hypervisor_crash", target="", at_s=0.0)

    def test_brownout_needs_fraction(self):
        with pytest.raises(ValueError, match="rate factor"):
            FaultSpec(kind="brownout", target="g0", at_s=0.0, param=0.0)
        with pytest.raises(ValueError, match="rate factor"):
            FaultSpec(kind="brownout", target="g0", at_s=0.0, param=1.5)

    def test_backend_disconnect_target_constrained(self):
        with pytest.raises(ValueError, match="backend_disconnect"):
            FaultSpec(kind="backend_disconnect", target="g0", at_s=0.0)
        FaultSpec(kind="backend_disconnect", target="vswitch", at_s=0.0)

    def test_frozen(self):
        spec = _crash()
        with pytest.raises(Exception):
            spec.at_s = 2.0


class TestFaultPlan:
    def test_none_is_falsy_and_empty(self):
        plan = FaultPlan.none()
        assert not plan
        assert len(plan) == 0
        assert plan.schedule() == ()

    def test_schedule_sorted_by_time(self):
        plan = FaultPlan.of(_crash(at_s=3e-3), _crash(at_s=1e-3),
                            _crash(at_s=2e-3))
        assert [f.at_s for f in plan.schedule()] == [1e-3, 2e-3, 3e-3]

    def test_filters(self):
        plan = FaultPlan.of(
            _crash(target="a"),
            FaultSpec(kind="dma_stall", target="b", at_s=0.0, duration_s=1e-3),
        )
        assert len(plan.for_kind("hypervisor_crash")) == 1
        assert plan.for_target("b")[0].kind == "dma_stall"

    def test_json_round_trip(self):
        plan = FaultPlan.of(
            _crash(),
            FaultSpec(kind="brownout", target="g1", at_s=2e-3,
                      duration_s=5e-3, param=0.25),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
