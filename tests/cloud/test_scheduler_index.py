"""Indexed-scheduler internals: the O(1) fast paths stay truthful.

``place()`` picks from per-kind availability heaps of registration
indices, and ``capacity_summary()`` reads running totals. Correctness
of the *placements* is pinned by the scheduler suite; this file pins
the index itself — the totals equal a from-scratch walk over the
server records after any operation sequence, ``place_board``/
``release_board`` are exactly ``place``/``release`` minus the
Placement object, and ``verify_index`` catches both a drifted total
and a heap that lost a placeable server.
"""

import heapq
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cloud import (CapacityError, Scheduler, SchedulerIndexError,
                         instance)


def _fleet(n_bm=6, n_kvm=3):
    sched = Scheduler()
    for i in range(n_bm):
        sched.add_bmhive_server(f"hive-{i}", board_slots=4)
    for i in range(n_kvm):
        sched.add_kvm_server(f"kvm-{i}", sellable_hyperthreads=88)
    return sched


class TestAggregateIndex:
    def test_summary_matches_recompute_through_churn(self):
        sched = _fleet()
        placements = []
        for step in range(24):
            placements.append(sched.place(instance("ebm.e5.32ht")))
            if step % 3 == 2:
                sched.release(placements.pop(0).instance_id)
            if step == 10:
                sched.quarantine("hive-1")
            if step == 15:
                sched.readmit("hive-1")
            assert sched.capacity_summary() == sched.recompute_summary()
            assert sched.verify_index()

    def test_summary_key_order_is_stable(self):
        sched = _fleet()
        expected = ["bm_servers", "kvm_servers", "boards_total",
                    "boards_used", "boards_free", "ht_total", "ht_used",
                    "ht_free", "quarantined_servers", "quarantined_boards",
                    "quarantined_ht"]
        assert list(sched.capacity_summary()) == expected
        assert list(sched.recompute_summary()) == expected

    def test_healthy_headroom_tracks_quarantine(self):
        sched = _fleet(n_bm=4, n_kvm=0)
        assert sched.healthy_headroom("bm") == 1.0
        sched.quarantine("hive-0")
        sched.quarantine("hive-1")
        assert sched.healthy_headroom("bm") == 0.5
        sched.readmit("hive-0")
        assert sched.healthy_headroom("bm") == 0.75

    def test_verify_index_catches_corruption(self):
        sched = _fleet()
        sched.place(instance("ebm.e5.32ht"))
        sched._totals["boards_free"] += 1
        with pytest.raises(AssertionError):
            sched.verify_index()
        # hive-0 still has 3 free boards: losing its heap entry hides
        # it from first fit, whether or not its flag was cleared too.
        sched = _fleet()
        sched.place(instance("ebm.e5.32ht"))
        assert heapq.heappop(sched._avail["bmhive"]) == 0
        with pytest.raises(SchedulerIndexError):
            sched.verify_index()
        sched._in_heap[0] = False
        with pytest.raises(SchedulerIndexError):
            sched.verify_index()
        sched = _fleet()
        heapq.heappush(sched._avail["kvm"], 6)
        with pytest.raises(SchedulerIndexError):
            sched.verify_index()

    def test_fragmented_kvm_pool_raises_and_keeps_index(self):
        """Enough free HT in total, but no single server fits."""
        sched = _fleet(n_bm=0, n_kvm=3)
        vm = instance("ecs.e5.32ht")
        placed = [sched.place(vm) for _ in range(6)]
        assert [s.free_units() for s in sched.servers.values()] == [24] * 3
        assert sched.capacity_summary()["ht_free"] >= vm.hyperthreads
        with pytest.raises(CapacityError):
            sched.place(vm)
        assert sched.verify_index()
        assert sorted(sched._avail["kvm"]) == [0, 1, 2]
        # The skipped entries were pushed back: freeing room on kvm-1
        # makes it the first fit.
        assert placed[2].server == "kvm-1"
        sched.release(placed[2].instance_id)
        assert sched.place(vm).server == "kvm-1"
        assert sched.verify_index()

    def test_verify_index_raises_under_optimize(self):
        """``python -O`` strips bare asserts; the index check must not
        go silent with them."""
        script = textwrap.dedent("""
            import heapq

            from repro.cloud import Scheduler, SchedulerIndexError, instance

            assert False, "asserts are live: not running under -O"
            sched = Scheduler()
            for i in range(6):
                sched.add_bmhive_server(f"hive-{i}", board_slots=4)
            sched.place(instance("ebm.e5.32ht"))
            sched._totals["boards_free"] += 1
            try:
                sched.verify_index()
            except SchedulerIndexError:
                print("raised")
            else:
                print("returned")
            sched._totals["boards_free"] -= 1
            heapq.heappop(sched._avail["bmhive"])
            try:
                sched.verify_index()
            except SchedulerIndexError:
                print("raised")
            else:
                print("returned")
            """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                capture_output=True, text=True, env=env,
                                timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.split() == ["raised", "raised"]


class TestBoardFastPath:
    def test_place_board_is_first_fit_parity(self):
        """place_board picks the same server sequence place() would."""
        a, b = _fleet(), _fleet()
        for _ in range(6 * 4):
            via_place = a.place(instance("ebm.e5.32ht")).server
            via_board = b.server_name(b.place_board())
            assert via_board == via_place
        with pytest.raises(CapacityError):
            b.place_board()

    def test_release_board_restores_exactly(self):
        sched = _fleet(n_bm=2, n_kvm=0)
        indices = [sched.place_board() for _ in range(8)]
        assert sched.capacity_summary()["boards_free"] == 0
        for index in indices:
            sched.release_board(index)
        assert sched.capacity_summary()["boards_free"] == 8
        assert sched.capacity_summary() == sched.recompute_summary()
        assert sched.verify_index()

    def test_release_board_rejects_unplaced_index(self):
        sched = _fleet(n_bm=2, n_kvm=1)
        sched.place_board()
        before = sched.capacity_summary()
        # -1 would wrap to the kvm server, 1 is an idle bm server, 2 is
        # the kvm server itself and 3 is past the end.
        for index in (-1, 1, 2, 3):
            with pytest.raises(KeyError):
                sched.release_board(index)
        assert sched.capacity_summary() == before
        assert sched.healthy_headroom("bm") <= 1.0
        assert sched.verify_index()
        sched.release_board(0)
        with pytest.raises(KeyError):
            sched.release_board(0)
        assert sched.capacity_summary()["boards_used"] == 0

    def test_place_board_skips_quarantined(self):
        sched = _fleet(n_bm=2, n_kvm=0)
        sched.quarantine("hive-0")
        for _ in range(4):
            assert sched.server_name(sched.place_board()) == "hive-1"
        with pytest.raises(CapacityError):
            sched.place_board()

    def test_interleaved_board_and_placement_paths(self):
        """Both APIs drive one shared index without drift."""
        sched = _fleet(n_bm=3, n_kvm=1)
        board = sched.place_board()
        placement = sched.place(instance("ebm.e5.32ht"))
        vm = sched.place(instance("ecs.e5.32ht"))
        sched.release_board(board)
        sched.release(placement.instance_id)
        sched.release(vm.instance_id)
        assert sched.capacity_summary() == sched.recompute_summary()
        assert sched.verify_index()
