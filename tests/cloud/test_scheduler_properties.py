"""Property-based scheduler tests (hypothesis).

The resilience layer rests on two scheduler invariants holding under
*any* interleaving of control-plane operations: capacity is never
oversubscribed (``used_boards <= board_slots``,
``used_hyperthreads <= sellable_hyperthreads``), and placement never
selects a quarantined server. Random sequences of place / place_board /
release / release_board / quarantine / readmit drive both, with every
placement checked against a linear first-fit scan of the server
records and conservation and ``verify_index`` checked at every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CapacityError, Scheduler, instance

BM = instance("ebm.e5.32ht")
VM = instance("ecs.e5.32ht")

_SERVERS = ("s0", "s1", "s2")

# An op is (kind, arg): place_bm/place_vm/place_board ignore arg;
# release/release_board pick the arg-th live placement of their kind;
# quarantine/readmit pick the arg-th server.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("place_bm", "place_vm", "place_board", "release",
             "release_board", "quarantine", "readmit")),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1, max_size=60,
)


def _build():
    sched = Scheduler()
    sched.add_bmhive_server("s0", board_slots=3)
    sched.add_bmhive_server("s1", board_slots=2)
    sched.add_kvm_server("s2", sellable_hyperthreads=88)
    return sched


def _check_conservation(sched):
    for server in sched.servers.values():
        assert 0 <= server.used_boards <= server.board_slots
        assert 0 <= server.used_hyperthreads <= server.sellable_hyperthreads
    # The capacity summary is self-consistent with per-server truth.
    summary = sched.capacity_summary()
    assert summary["boards_used"] == sum(
        s.used_boards for s in sched.servers.values())
    assert summary["boards_free"] >= 0 and summary["ht_free"] >= 0


def _linear_first_fit(sched, kind, need):
    """The first server in registration order that can take ``need``."""
    for name, server in sched.servers.items():
        if server.kind == kind and not server.quarantined \
                and server.free_units() >= need:
            return name
    return None


@settings(max_examples=120, deadline=None)
@given(ops=_OPS)
def test_random_sequences_never_oversubscribe_or_use_quarantined(ops):
    sched = _build()
    live = []
    boards = []
    for kind, arg in ops:
        if kind in ("place_bm", "place_vm", "place_board"):
            itype = VM if kind == "place_vm" else BM
            expected = _linear_first_fit(
                sched, "bmhive" if itype is BM else "kvm",
                1 if itype is BM else itype.hyperthreads)
            try:
                if kind == "place_board":
                    index = sched.place_board()
                    server = sched.server_name(index)
                else:
                    placement = sched.place(itype)
                    server = placement.server
            except CapacityError as exc:
                # The structured details must agree with live state.
                assert exc.details["boards_total"] == 5
                assert expected is None
                continue
            assert server == expected
            # The core invariant: never placed on a quarantined server.
            assert not sched.servers[server].quarantined
            if kind == "place_board":
                boards.append(index)
            else:
                live.append(placement.instance_id)
        elif kind == "release" and live:
            sched.release(live.pop(arg % len(live)))
        elif kind == "release_board" and boards:
            sched.release_board(boards.pop(arg % len(boards)))
        elif kind == "quarantine":
            sched.quarantine(_SERVERS[arg % len(_SERVERS)])
        elif kind == "readmit":
            sched.readmit(_SERVERS[arg % len(_SERVERS)])
        _check_conservation(sched)
        assert sched.verify_index()
    # Releasing everything restores a clean pool.
    for instance_id in live:
        sched.release(instance_id)
    for index in boards:
        sched.release_board(index)
    assert sched.verify_index()
    assert sum(s.used_boards for s in sched.servers.values()) == 0
    assert sum(s.used_hyperthreads for s in sched.servers.values()) == 0


@settings(max_examples=60, deadline=None)
@given(quarantined=st.sets(st.sampled_from(_SERVERS)),
       n_places=st.integers(min_value=1, max_value=8))
def test_quarantined_set_is_never_selected(quarantined, n_places):
    sched = _build()
    for name in sorted(quarantined):
        sched.quarantine(name)
    placed_on = set()
    for _ in range(n_places):
        try:
            placed_on.add(sched.place(BM).server)
        except CapacityError:
            break
        try:
            placed_on.add(sched.place(VM).server)
        except CapacityError:
            pass
    assert placed_on.isdisjoint(quarantined)
    # Headroom reflects only the non-quarantined fraction.
    if quarantined == set(_SERVERS):
        assert sched.healthy_headroom("bm") == 0.0
        assert sched.healthy_headroom("vm") == 0.0
