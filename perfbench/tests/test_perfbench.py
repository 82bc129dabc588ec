"""The benchmark's own tests, at tiny sizes.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, layers
from perfbench.spans import Tracer
from perfbench.workloads import (WORKLOADS, RegionChurn, RegionFailover,
                                 RingIo)

ROOT = Path(__file__).resolve().parents[2]


def tiny(name):
    """Each workload at a size that runs in about a second."""
    return {"ring_io": lambda: RingIo(reads_per_guest=6),
            "region_churn": lambda: RegionChurn(racks=2, duration_s=1.0),
            "region_failover": RegionFailover}[name]()


def untraced(workload, seed, k=0):
    episode, _, _, _ = bench._episode(workload, seed, k)
    return episode


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_checks(name):
    result = bench.run(tiny(name), seed=3, seconds=0.0, trace=False,
                       min_episodes=1)
    assert result["correct"], result["meta"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, _, _ in bench.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_fingerprint(name):
    first = untraced(tiny(name), seed=5)
    again = untraced(tiny(name), seed=5)
    other = untraced(tiny(name), seed=5, k=1)
    assert first.fingerprint == again.fingerprint
    assert first.outcome == again.outcome
    assert first.fingerprint != other.fingerprint


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_equals_untraced(name):
    plain = untraced(tiny(name), seed=2)
    traced, _ = bench.traced_episode(tiny(name), 2, 0, Tracer())
    assert traced.errors == 0
    assert traced.fingerprint == plain.fingerprint
    assert traced.outcome == plain.outcome


def test_tracing_leaves_classes_unpatched():
    from repro.iobond.bond import IoBond
    from repro.sim import Simulator

    before = (IoBond.__dict__["guest_pci_access"], Simulator.__dict__["spawn"])
    bench.traced_episode(tiny("ring_io"), 1, 0, Tracer())
    after = (IoBond.__dict__["guest_pci_access"], Simulator.__dict__["spawn"])
    assert before == after


def test_ring_io_segments_sum_to_latency():
    workload = RingIo(reads_per_guest=12)
    plain = untraced(workload, seed=4)
    tracer = Tracer()
    traced, _ = bench.traced_episode(workload, 4, 0, tracer)
    sums = traced.details["segment_sums_s"]
    latencies = plain.details["latencies_s"]
    assert len(sums) == len(latencies) == traced.details["requests"]
    assert sums == pytest.approx(latencies, rel=0, abs=1e-12)
    pci = tracer.stats("iobond:pci_access")
    assert pci.calls == len(latencies)
    assert sum(pci.sim_s) / len(pci.sim_s) == pytest.approx(1.6e-6, rel=1e-9)
    segments = traced.details["segments_mean_sim_us"]
    assert segments["pci_notify"] == pytest.approx(1.6, rel=1e-9)
    assert min(segments.values()) >= 0


def test_traced_run_reports_every_layer_metric():
    result = bench.run(tiny("ring_io"), seed=1, seconds=0.0, trace=True,
                       min_episodes=1)
    assert result["correct"], result["meta"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _, _ in layers.CATALOG]
    assert metrics["iobond.pci_access_sim_us"]["value"] == pytest.approx(1.6)
    assert metrics["hypervisor.entries"]["value"] == 48
    assert metrics["sim.self_host_s"]["value"] > 0


def test_fastest_quarter_median():
    median = bench.fastest_quarter_median
    assert median([1, 8, 2, 7, 3, 6, 4, 5], higher_is_faster=True) == 7.5
    assert median([1, 8, 2, 7, 3, 6, 4, 5], higher_is_faster=False) == 1.5
    assert median([3, 1, 2, 4, 5], higher_is_faster=True) == 4.5
    assert median([3, 1, 2], higher_is_faster=False) == 1


def test_tracer_generator_wrapper_is_transparent():
    tracer = Tracer()

    def inner():
        got = yield "a"
        got2 = yield got * 2
        return got2 + 1

    gen = tracer.generator(inner(), "layer:op")
    assert next(gen) == "a"
    assert gen.send(3) == 6
    with pytest.raises(StopIteration) as stop:
        gen.send(10)
    assert stop.value.value == 11
    stat = tracer.stats("layer:op", "setup")
    assert (stat.calls, stat.resumes) == (1, 3)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    child = tracer.call(lambda: sum(range(20000)), "b:child")
    parent = tracer.call(lambda: child() + child(), "a:parent")
    parent()
    p, c = tracer.stats("a:parent", "setup"), tracer.stats("b:child", "setup")
    assert c.calls == 2
    assert p.child_s == pytest.approx(c.host_s)
    assert 0 <= p.self_s < p.host_s
    assert tracer.spans[-1].key == "a:parent"
    assert tracer.spans[0].parent == tracer.spans[-1].sid


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.CATALOG)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring_io",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
