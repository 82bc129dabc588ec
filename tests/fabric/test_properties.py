"""Property-based fabric tests (hypothesis).

Two families: (1) on *arbitrary* random connected topologies the
routing tables are shortest-path-optimal and loop-free — checked
against an independent Bellman-Ford computed in the test, not against
Dijkstra itself; (2) on the live Clos, a transfer train that suffers
an arbitrary in-envelope link flap delivers byte-for-byte what the
healthy run delivers — rerouting changes timing, never payload.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import FabricNetwork, TopologySpec, dijkstra
from repro.fabric.routing import RoutingTables
from repro.sim import Simulator

KIB = 1024


# -- random connected weighted graphs ----------------------------------

@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    nodes = [f"n{i}" for i in range(n)]
    weights = st.floats(min_value=1e-6, max_value=10.0,
                        allow_nan=False, allow_infinity=False)
    adj = {node: {} for node in nodes}

    def connect(a, b, w):
        adj[a][b] = w
        adj[b][a] = w

    # Random spanning tree first (guaranteed connectivity)...
    for i in range(1, n):
        parent = nodes[draw(st.integers(min_value=0, max_value=i - 1))]
        connect(nodes[i], parent, draw(weights))
    # ...then a sprinkling of extra edges for alternate paths.
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i != j and nodes[j] not in adj[nodes[i]]:
            connect(nodes[i], nodes[j], draw(weights))
    return adj


def bellman_ford(adj, source):
    """Independent shortest-path oracle (no heap, no tie-breaking)."""
    dist = {source: 0.0}
    for _ in range(len(adj)):
        changed = False
        for node, nbrs in adj.items():
            if node not in dist:
                continue
            for nbr, w in nbrs.items():
                cand = dist[node] + w
                if cand < dist.get(nbr, float("inf")) - 1e-15:
                    dist[nbr] = cand
                    changed = True
        if not changed:
            break
    return dist


@given(adj=connected_graphs())
@settings(max_examples=60, deadline=None)
def test_recompute_tables_equal_per_source_dijkstra(adj):
    tables = RoutingTables()
    tables.recompute(adj, version=1)
    for source in adj:
        dist, first_hop = dijkstra(adj, source)
        for dst in adj:
            assert tables.distance(source, dst) == dist.get(dst)
            assert tables.next_hop(source, dst) == (
                None if dst == source else first_hop.get(dst))
            assert tables.reachable(source, dst) == (dst in dist)
            walk = tables.path(source, dst)
            assert walk[0] == source and walk[-1] == dst
            assert walk[1:2] == ([] if dst == source else [first_hop[dst]])


@given(adj=connected_graphs())
@settings(max_examples=60, deadline=None)
def test_dijkstra_matches_bellman_ford_on_random_graphs(adj):
    for source in adj:
        dist, first_hop = dijkstra(adj, source)
        oracle = bellman_ford(adj, source)
        assert set(dist) == set(oracle)
        for node, d in dist.items():
            assert abs(d - oracle[node]) < 1e-9
        # Every first hop is a real up-neighbor of the source.
        for node, hop in first_hop.items():
            if node != source:
                assert hop in adj[source]


@given(adj=connected_graphs())
@settings(max_examples=60, deadline=None)
def test_routing_tables_are_loop_free_and_complete(adj):
    tables = RoutingTables()
    tables.recompute(adj, version=1)
    nodes = sorted(adj)
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            # Connected graph: every pair must have a route, and the
            # next-hop walk must terminate (path() returns None on a
            # loop) with strictly decreasing distance along the way.
            walk = tables.path(src, dst)
            assert walk is not None, f"no route {src}->{dst}"
            assert walk[0] == src and walk[-1] == dst
            assert len(set(walk)) == len(walk)  # no node revisited
            dists = [tables.distance(node, dst) for node in walk[:-1]]
            assert all(a > b for a, b in zip(dists, dists[1:] + [0.0]))


# -- reroute equivalence on the live Clos -------------------------------

def _delivery_totals(seed, n_transfers, nbytes, flap):
    """Run a transfer train; optionally flap a link mid-train."""
    sim = Simulator(seed=seed)
    net = FabricNetwork(sim, TopologySpec.clos(n_racks=2, n_spines=2))
    net.attach_server("s0")

    def sender():
        for _ in range(n_transfers):
            yield from net.transfer("s0", "storage", nbytes)

    sim.spawn(sender(), name="prop.sender")
    if flap is not None:
        at_s, duration_s, link = flap

        def flapper():
            yield sim.timeout(at_s)
            yield from net.flap_link(link, duration_s)

        sim.spawn(flapper(), name="prop.flapper")
    sim.run()
    return net.counters()


@given(
    n_transfers=st.integers(min_value=1, max_value=6),
    size_kib=st.integers(min_value=1, max_value=256),
    flap_at_us=st.floats(min_value=0.0, max_value=120.0,
                         allow_nan=False, allow_infinity=False),
    flap_for_us=st.floats(min_value=0.1, max_value=50.0,
                          allow_nan=False, allow_infinity=False),
    link=st.sampled_from(["spine-0|tor-0", "spine-0|storage"]),
)
@settings(max_examples=40, deadline=None)
def test_reroute_delivers_byte_identical_payload(
        n_transfers, size_kib, flap_at_us, flap_for_us, link):
    """An in-envelope flap (redundant path survives) never changes
    *what* is delivered — only when."""
    nbytes = size_kib * KIB
    healthy = _delivery_totals(11, n_transfers, nbytes, flap=None)
    flapped = _delivery_totals(
        11, n_transfers, nbytes,
        flap=(flap_at_us * 1e-6, flap_for_us * 1e-6, link))
    assert flapped["delivered"] == healthy["delivered"] == n_transfers
    assert flapped["bytes_delivered"] == healthy["bytes_delivered"] \
        == n_transfers * nbytes
    assert flapped["failed"] == 0
    assert flapped["duplicates"] == 0


def test_transfer_train_is_seed_deterministic():
    """Same seed, same flap -> byte-identical counters (backoff draws
    come from the seeded fabric.backoff stream)."""
    flap = (10e-6, 30e-6, "spine-0|tor-0")
    a = _delivery_totals(7, 5, 64 * KIB, flap)
    b = _delivery_totals(7, 5, 64 * KIB, flap)
    assert a == b
