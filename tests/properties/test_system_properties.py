"""Cross-cutting property-based tests (hypothesis) on system invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Scheduler, instance
from repro.hw import Chassis, ChassisSpec, ComputeBoard
from repro.iobond import ShadowVring
from repro.sim import Simulator
from repro.virtio import VirtQueue


class TestChassisInvariants:
    @given(
        actions=st.lists(st.sampled_from(["admit", "remove"]), min_size=1,
                         max_size=40)
    )
    @settings(max_examples=40, deadline=None)
    def test_power_and_slots_never_exceeded(self, actions):
        sim = Simulator(seed=0)
        chassis = Chassis(sim, ChassisSpec(max_slots=6, power_budget_watts=900.0))
        boards = []
        for action in actions:
            if action == "admit":
                board = ComputeBoard(sim, "Xeon E3-1240 v6", 32)
                if chassis.can_admit(board):
                    chassis.admit(board)
                    boards.append(board)
            elif boards:
                chassis.remove(boards.pop())
            # The invariants, after every step:
            assert len(chassis.boards) <= chassis.spec.max_slots
            assert chassis.power_draw_watts <= chassis.spec.power_budget_watts

    @given(n=st.integers(min_value=0, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_sellable_ht_is_sum_of_boards(self, n):
        sim = Simulator(seed=0)
        chassis = Chassis(sim, ChassisSpec(max_slots=16, power_budget_watts=1e9))
        for _ in range(n):
            chassis.admit(ComputeBoard(sim, "Xeon E3-1240 v6", 32))
        assert chassis.sellable_hyperthreads == 8 * n


class TestSchedulerInvariants:
    @given(
        ops=st.lists(st.sampled_from(["bm", "vm", "release"]), min_size=1,
                     max_size=60)
    )
    @settings(max_examples=40, deadline=None)
    def test_capacity_conservation(self, ops):
        scheduler = Scheduler()
        scheduler.add_bmhive_server("h", board_slots=4)
        scheduler.add_kvm_server("k", sellable_hyperthreads=88)
        live = []
        for op in ops:
            if op == "release" and live:
                scheduler.release(live.pop())
                continue
            if op in ("bm", "vm"):
                itype = instance("ebm.e5.32ht" if op == "bm" else "ecs.e5.32ht")
                try:
                    placement = scheduler.place(itype)
                    live.append(placement.instance_id)
                except Exception:
                    pass
            for server in scheduler.servers.values():
                assert 0 <= server.used_boards <= max(server.board_slots, 0)
                assert 0 <= server.used_hyperthreads <= max(
                    server.sellable_hyperthreads, 0
                )
        # Releasing everything restores an empty pool.
        for instance_id in live:
            scheduler.release(instance_id)
        assert all(s.used_boards == 0 and s.used_hyperthreads == 0
                   for s in scheduler.servers.values())


class TestShadowVringProperties:
    @given(
        payloads=st.lists(st.binary(min_size=1, max_size=64), min_size=1,
                          max_size=24)
    )
    @settings(max_examples=40, deadline=None)
    def test_shadow_sync_preserves_payloads_in_order(self, payloads):
        guest_vq = VirtQueue(size=64)
        shadow = ShadowVring(guest_vq)
        for payload in payloads:
            guest_vq.add_buffer([payload], [])
        staged, _ = shadow.stage_from_guest()
        shadow.publish_staged(staged)
        seen = []
        while True:
            entry = shadow.backend_poll()
            if entry is None:
                break
            seen.append(entry.payload)
            shadow.backend_complete(entry.guest_head)
        assert seen == payloads
        delivered = shadow.flush_to_guest()
        assert delivered == len(payloads)
        # Every buffer comes back to the driver exactly once.
        reaped = 0
        while guest_vq.get_used() is not None:
            reaped += 1
        assert reaped == len(payloads)


class TestPathMonotonicity:
    @given(
        small=st.integers(min_value=1, max_value=700),
        delta=st.integers(min_value=1, max_value=700),
        batch=st.sampled_from([1, 8, 32]),
    )
    @settings(max_examples=30, deadline=None)
    def test_tx_time_monotone_in_payload(self, testbed, small, delta, batch):
        for path in (testbed.bm.net_path, testbed.vm.net_path):
            assert path.tx_time(batch, small + delta) >= path.tx_time(batch, small)

    @given(
        n=st.integers(min_value=1, max_value=64),
        extra=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_tx_time_monotone_in_batch(self, testbed, n, extra):
        for path in (testbed.bm.net_path, testbed.vm.net_path):
            assert path.tx_time(n + extra, 64) >= path.tx_time(n, 64)


class TestExperimentDeterminism:
    @pytest.mark.parametrize("exp_id", ["cost", "nested", "iobond_micro", "table3"])
    def test_same_seed_same_rows(self, exp_id):
        from repro.experiments import ALL_EXPERIMENTS

        first = ALL_EXPERIMENTS[exp_id](seed=11, quick=True)
        second = ALL_EXPERIMENTS[exp_id](seed=11, quick=True)
        assert first.rows == second.rows
