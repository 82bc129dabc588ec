"""Deterministic Dijkstra and the link-state routing tables."""

import pytest

from repro.fabric import RoutingTables, dijkstra

# A small asymmetric graph with one strictly-shortest detour:
#   a --1-- b --1-- d        a->d best is a-b-d (2.0)
#    \--3-- c --1--/         a-c-d costs 4.0
_GRAPH = {
    "a": {"b": 1.0, "c": 3.0},
    "b": {"a": 1.0, "d": 1.0},
    "c": {"a": 3.0, "d": 1.0},
    "d": {"b": 1.0, "c": 1.0},
}
# A healthy a-b pair next to an island whose only link weighs zero.
_BAD_ISLAND = {"a": {"b": 1.0}, "b": {"a": 1.0},
               "x": {"y": 0.0}, "y": {"x": 0.0}}


class TestDijkstra:
    def test_distances_and_first_hops(self):
        dist, first_hop = dijkstra(_GRAPH, "a")
        assert dist == {"a": 0.0, "b": 1.0, "c": 3.0, "d": 2.0}
        assert first_hop["d"] == "b"
        assert first_hop["c"] == "c"  # direct edge still beats b-d-c

    def test_unreachable_nodes_are_absent(self):
        graph = {"a": {"b": 1.0}, "b": {"a": 1.0}, "x": {}}
        dist, first_hop = dijkstra(graph, "a")
        assert "x" not in dist and "x" not in first_hop

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            dijkstra({"a": {"b": 0.0}, "b": {"a": 0.0}}, "a")

    def test_unreached_bad_weight_is_not_checked(self):
        # Weights are checked as nodes are popped, so a bad link in
        # another component does not stop this source's run.
        dist, _ = dijkstra(_BAD_ISLAND, "a")
        assert dist == {"a": 0.0, "b": 1.0}

    def test_equal_cost_tie_breaks_deterministically(self):
        # Two equal-cost two-hop paths a-b-d / a-c-d: sorted relaxation
        # with strict improvement keeps the lexicographically first.
        graph = {
            "a": {"b": 1.0, "c": 1.0},
            "b": {"a": 1.0, "d": 1.0},
            "c": {"a": 1.0, "d": 1.0},
            "d": {"b": 1.0, "c": 1.0},
        }
        for _ in range(5):
            _, first_hop = dijkstra(graph, "a")
            assert first_hop["d"] == "b"


class TestRoutingTables:
    def test_recompute_and_path_walk(self):
        tables = RoutingTables()
        tables.recompute(_GRAPH, version=1)
        assert tables.version == 1
        assert tables.recomputes == 1
        assert tables.path("a", "d") == ["a", "b", "d"]
        assert tables.next_hop("a", "d") == "b"
        assert tables.distance("a", "d") == 2.0

    def test_self_route_is_none(self):
        tables = RoutingTables()
        tables.recompute(_GRAPH, version=1)
        assert tables.next_hop("a", "a") is None
        assert tables.path("a", "a") == ["a"]

    def test_partition_has_no_route(self):
        graph = {"a": {"b": 1.0}, "b": {"a": 1.0},
                 "x": {"y": 1.0}, "y": {"x": 1.0}}
        tables = RoutingTables()
        tables.recompute(graph, version=1)
        assert tables.next_hop("a", "x") is None
        assert tables.path("a", "x") is None
        assert not tables.reachable("a", "x")
        assert tables.reachable("a", "b")

    def test_recompute_routes_around_removed_edge(self):
        tables = RoutingTables()
        tables.recompute(_GRAPH, version=1)
        assert tables.path("a", "d") == ["a", "b", "d"]
        pruned = {n: {m: w for m, w in nbrs.items()
                      if {n, m} != {"a", "b"}}
                  for n, nbrs in _GRAPH.items()}
        tables.recompute(pruned, version=2)
        assert tables.path("a", "d") == ["a", "c", "d"]
        assert tables.version == 2

    def test_recompute_raises_dijkstras_error(self):
        with pytest.raises(ValueError) as expected:
            dijkstra(_BAD_ISLAND, "x")
        tables = RoutingTables()
        with pytest.raises(ValueError) as raised:
            tables.recompute(_BAD_ISLAND, version=1)
        assert str(raised.value) == str(expected.value) \
            == "link weight must be positive: x->y = 0.0"
        assert tables.version == -1 and tables.recomputes == 0
