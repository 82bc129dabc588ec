"""Tests for ``Simulator.audit`` and the quiescence report."""

import gc

import pytest

from repro.sim import QuiescenceError, Simulator
from repro.sim.resources import Resource


@pytest.fixture
def sim():
    return Simulator(seed=7)


def _sleeper(sim, dt):
    yield sim.timeout(dt)


class TestAuditProcesses:
    def test_live_and_finished_processes(self, sim):
        sim.spawn(_sleeper(sim, 1.0), name="short")
        long = sim.spawn(_sleeper(sim, 10.0), name="long")
        sim.run(until=5.0)
        report = sim.audit()
        names = [p.name for p in report.live_processes]
        assert names == ["long"]
        assert long.is_alive
        assert "long" in repr(report)

    def test_quiescent_after_everything_ran(self, sim):
        sim.spawn(_sleeper(sim, 1.0), name="a")
        sim.spawn(_sleeper(sim, 2.0), name="b")
        sim.run(until=5.0)
        sim.audit().require_quiescent()  # must not raise

    def test_allow_prefixes_filter_daemons(self, sim):
        def daemon():
            while True:
                yield sim.timeout(1.0)

        sim.spawn(daemon(), name="bmhv.g0")
        sim.run(until=5.0)
        report = sim.audit()
        assert report.offenders(allow_processes=("bmhv.",)) == []
        with pytest.raises(QuiescenceError, match="bmhv.g0"):
            report.require_quiescent()

    def test_error_lists_every_offender(self, sim):
        def stuck(resource):
            yield resource.request()
            yield sim.timeout(100.0)

        resource = Resource(sim, capacity=1, label="wire")
        sim.spawn(stuck(resource), name="holder")
        sim.run(until=1.0)
        with pytest.raises(QuiescenceError) as excinfo:
            sim.audit().require_quiescent()
        message = str(excinfo.value)
        assert "holder" in message
        assert "wire" in message and "1/1" in message


class TestAuditPrimitives:
    def test_held_resource_slots_reported(self, sim):
        resource = Resource(sim, capacity=2, label="channels")

        def holder():
            yield resource.request()
            yield sim.timeout(10.0)
            resource.release()

        sim.spawn(holder(), name="h")
        sim.run(until=1.0)
        report = sim.audit()
        assert report.busy_resources == [("channels", 1, 2, 0)]
        sim.run(until=20.0)
        assert sim.audit().busy_resources == []

    def test_unlabeled_primitive_uses_type_name(self, sim):
        resource = Resource(sim, capacity=1)
        labels = [label for label, *_ in sim.audit().resources]
        assert labels == ["Resource"]
        assert resource.label == ""

    def test_dead_primitives_pruned_by_gc(self, sim):
        Resource(sim, capacity=1, label="transient")
        gc.collect()
        labels = [label for label, *_ in sim.audit().resources]
        assert "transient" not in labels
