"""On-demand route trees equal the eager tables, and run only when asked.

:class:`repro.fabric.routing.RoutingTables` computes a source's tree on
its first lookup after a topology change. The reference
(:mod:`tests.fabric.reference_routing`) computes every tree inside
``recompute``. Under random sequences of attaches, link failures and
restores, switch crashes and snapshot/restore, both must answer every
lookup alike at every topology version. Counting Dijkstra runs shows
the work follows the lookups: building a region and a burst of link
failures run none, and a probe sweep after a ToR crash runs one.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import (
    FabricNetwork,
    RoutingInvariantMonitor,
    TopologySpec,
    routing,
)
from repro.fabric.network import STORAGE_NODE
from repro.fleet import Region, RegionSpec
from repro.sim import Simulator
from tests.fabric.reference_routing import EagerRoutingTables

# A node no topology has: its lookups must miss without a tree.
GHOST = "ghost"


def _assert_tables_equal(tables, reference):
    assert tables.version == reference.version
    assert tables.nodes == reference.nodes
    names = reference.nodes + (GHOST,)
    for src in names:
        for dst in names:
            assert tables.next_hop(src, dst) == reference.next_hop(src, dst)
            assert tables.distance(src, dst) == reference.distance(src, dst)
            assert tables.reachable(src, dst) == reference.reachable(src, dst)
            assert tables.path(src, dst) == reference.path(src, dst)


_OPS = st.lists(st.one_of(
    st.tuples(st.just("attach"), st.just(0)),
    st.tuples(st.sampled_from(["fail", "restore", "crash"]),
              st.integers(min_value=0, max_value=63)),
    st.tuples(st.sampled_from(["snapshot", "restore_snapshot"]),
              st.just(0)),
), max_size=14)


@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_lookups_equal_eager_tables_at_every_version(ops):
    sim = Simulator(seed=5)
    net = FabricNetwork(sim, TopologySpec.clos(n_racks=2, n_spines=2))
    reference = EagerRoutingTables()
    versions = []

    def check(network):
        reference.recompute(network.adjacency(), network.topology_version)
        _assert_tables_equal(network.tables, reference)
        versions.append(network.topology_version)

    net.add_listener(check)
    saved = None
    for kind, index in ops:
        links = net.link_names
        if kind == "attach":
            net.attach_server(f"s{len(net.servers)}")
        elif kind == "fail":
            net.fail_link(links[index % len(links)])
        elif kind == "restore":
            net.restore_link(links[index % len(links)])
        elif kind == "crash":
            switch = net.switches[index % len(net.switches)]
            sim.spawn(net.crash_switch(switch, 1e-6), name="t.crash")
            sim.run()
        elif kind == "snapshot":
            saved = copy.deepcopy(net.snapshot_state())
        elif saved is not None:
            net.restore_state(copy.deepcopy(saved))
    # Every recompute was checked; a final pass covers an empty plan.
    assert len(versions) == net.tables.recomputes - 1
    check(net)


# -- Dijkstra runs follow lookups ---------------------------------------

@pytest.fixture
def dijkstra_runs(monkeypatch):
    """The source of every ``_shortest_paths`` run, in order."""
    runs = []
    shipped = routing._shortest_paths

    def counted(neighbors, source):
        runs.append(source)
        return shipped(neighbors, source)

    monkeypatch.setattr(routing, "_shortest_paths", counted)
    return runs


def _failover_region(sim):
    """The perfbench ``region_failover`` shape: 8 racks x 4 servers."""
    return Region(sim, RegionSpec(n_racks=8, servers_per_rack=4,
                                  boards_per_server=8))


def test_building_a_region_runs_no_dijkstra(dijkstra_runs):
    region = _failover_region(Simulator(seed=0))
    assert region.network.tables.recomputes == 33  # 32 attaches + build
    assert dijkstra_runs == []


def test_link_failures_without_lookups_run_no_dijkstra(dijkstra_runs):
    net = FabricNetwork(Simulator(seed=0),
                        TopologySpec.clos(n_racks=4, n_spines=2))
    for i in range(8):
        net.attach_server(f"s{i}")
    version = net.topology_version
    for name in ("s0|tor-0", "s1|tor-1", "spine-0|tor-2", "spine-1|tor-3",
                 "spine-0|storage", "s5|tor-1"):
        net.fail_link(name)
    assert net.topology_version == version + 6
    assert dijkstra_runs == []
    # The first lookup builds one tree; lookups from it reuse it.
    assert not net.tables.reachable("s0", STORAGE_NODE)
    assert net.tables.path("s2", STORAGE_NODE) == \
        ["s2", "tor-2", "spine-1", STORAGE_NODE]
    assert dijkstra_runs == ["s0", "s2", "tor-2", "spine-1"]
    assert net.tables.next_hop("s2", STORAGE_NODE) == "tor-2"
    assert len(dijkstra_runs) == 4


def test_probe_sweep_after_tor_down_runs_one_dijkstra(dijkstra_runs):
    sim = Simulator(seed=0)
    region = _failover_region(sim)
    interval = region.spec.health.probe_interval_s
    region.start()
    sim.run(until=2.5 * interval)  # sweeps at 0, 1 and 2 intervals
    assert dijkstra_runs == [STORAGE_NODE]
    del dijkstra_runs[:]
    version = region.network.topology_version
    sim.spawn(region.network.crash_switch("tor-0", 1.0), name="t.tor_down")
    sim.run(until=3.5 * interval)  # the next sweep
    assert region.network.topology_version == version + 6  # 4 hosts, 2 up
    assert dijkstra_runs == [STORAGE_NODE]
    sim.run(until=6.5 * interval)  # unchanged topology: trees reused
    assert dijkstra_runs == [STORAGE_NODE]
    assert not region.network.tables.reachable(STORAGE_NODE, "r0-s0")


# -- the routing monitor certifies each routing state once --------------

@pytest.fixture
def certified(monkeypatch):
    """The fabric routing monitor, with each certificate run counted."""
    sim = Simulator(seed=404)
    net = FabricNetwork(sim, TopologySpec.clos(n_racks=2, n_spines=2))
    net.attach_server("s0")
    net.attach_server("s1")
    runs = []
    shipped = RoutingInvariantMonitor._certify

    def counted(tables, adjacency):
        runs.append(tables.version)
        return shipped(tables, adjacency)

    monkeypatch.setattr(RoutingInvariantMonitor, "_certify",
                        staticmethod(counted))
    return sim, net, RoutingInvariantMonitor(net), runs


def test_monitor_certifies_each_version_once(certified):
    sim, net, monitor, runs = certified
    for _ in range(5):
        assert list(monitor.observe(sim)) == []
    assert runs == [net.topology_version]
    net.fail_link("spine-0|tor-0")
    for _ in range(5):
        assert list(monitor.observe(sim)) == []
    net.restore_link("spine-0|tor-0")
    assert list(monitor.observe(sim)) == []
    assert runs == [3, 4, 5]


def test_monitor_flags_next_hop_edited_in_place(certified):
    sim, net, monitor, _ = certified
    assert list(monitor.observe(sim)) == []
    version = net.topology_version
    net.tables.trees()["s0"][1][STORAGE_NODE] = "spine-0"
    assert net.tables.version == net.topology_version == version
    violations = list(monitor.observe(sim))
    assert any(f"s0 -> {STORAGE_NODE}: next hop spine-0 is not an up "
               f"neighbor" in m for m in violations)
    # The verdict stands at every sample while the edit does.
    assert list(monitor.observe(sim)) == violations


def test_monitor_flags_link_state_changed_without_recompute(certified):
    sim, net, monitor, _ = certified
    assert list(monitor.observe(sim)) == []
    net.link("s0|tor-0").up = False
    violations = list(monitor.observe(sim))
    assert any(f"s0 -> {STORAGE_NODE}: route exists across a partition"
               in m for m in violations)
