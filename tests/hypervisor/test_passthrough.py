"""Passthrough-mode bm-hypervisor: per-queue workers and doorbells."""

import functools

import pytest

from repro.backend.limits import RateLimits
from repro.config.profile import HardwareProfile, QueueSpec
from repro.core.server import BmHiveServer
from repro.hypervisor import live_upgrade
from repro.sim import Simulator
from repro.virtio.blk import SECTOR_BYTES, VIRTIO_BLK_S_OK
from repro.virtio.device import full_init

N_QUEUES = 3


def _mq_profile(passthrough: bool) -> HardwareProfile:
    from dataclasses import replace

    return replace(HardwareProfile.paper(), queues=QueueSpec(
        blk_queues=N_QUEUES, backend_workers=N_QUEUES,
        passthrough=passthrough))


def _rig(passthrough: bool, seed: int = 3, late=()):
    """A started 3-queue guest; queues in ``late`` register after start()."""
    sim = Simulator(seed=seed)
    hive = BmHiveServer(sim, profile=_mq_profile(passthrough))
    guest = hive.launch_guest(name="mq0", limits=RateLimits.unrestricted())
    blk = guest.blk_device
    full_init(blk)
    bond = guest.bond
    port = bond.port("blk")

    def make_handler(queue_index):
        def handle(entry):
            nbytes = max(0, entry.writable_bytes - 1)

            def service():
                yield from hive.storage.submit(
                    guest.limiters, max(nbytes, SECTOR_BYTES), is_read=True,
                    queue_index=queue_index)
                port.shadows[queue_index].backend_complete(
                    entry.guest_head, bytes(nbytes) + bytes([VIRTIO_BLK_S_OK]))
                yield from bond.deliver_completions(port, queue_index)

            return service()

        return handle

    hv = guest.hypervisor
    for qi in range(N_QUEUES):
        if qi not in late:
            hv.register_handler("blk", qi, make_handler(qi))
    hv.mark_booting()
    hv.start()
    hv.mark_running()
    for qi in late:
        hv.register_handler("blk", qi, make_handler(qi))
    return sim, hive, guest, blk, bond, port, hv


def _kick_one_read_per_queue(sim, blk, bond, port):
    def guest_side(qi):
        blk.driver_read(qi * 8, 4096, queue_index=qi)
        yield from bond.guest_pci_access(port, "queue_notify", qi)

    for qi in range(N_QUEUES):
        sim.run_process(guest_side(qi))
    sim.run(until=sim.now + 2e-3)


class TestPassthroughDataplane:
    def test_one_worker_and_doorbell_per_queue(self):
        sim, hive, guest, blk, bond, port, hv = _rig(passthrough=True)
        assert hv.passthrough
        assert set(hv.queue_doorbells) == {("blk", qi)
                                           for qi in range(N_QUEUES)}
        assert set(hv.workers) == {"bmhv.mq0.mailbox"} | {
            f"bmhv.mq0.blk.q{qi}" for qi in range(N_QUEUES)}
        assert hv.is_polling

    def test_requests_serviced_per_queue_with_stats(self):
        sim, hive, guest, blk, bond, port, hv = _rig(passthrough=True)
        _kick_one_read_per_queue(sim, blk, bond, port)
        for qi in range(N_QUEUES):
            assert blk.queue(qi).get_used() is not None
            assert hv.queue_entries_handled[("blk", qi)] == 1
            stats = port.queue_stats(qi)
            assert stats["kicks"] == 1
            assert stats["syncs"] == 1
            assert stats["completions"] == 1
            assert stats["interrupts"] == 1
        assert hv.entries_handled == N_QUEUES
        # Queue-affine backend sharding: one submission per worker.
        assert hive.storage.worker_submitted == [1] * N_QUEUES

    def test_mediated_mode_counts_the_same_queues(self):
        """The shared poll loop keeps identical per-queue counters."""
        sim, hive, guest, blk, bond, port, hv = _rig(passthrough=False)
        assert not hv.passthrough
        assert hv.queue_doorbells == {}
        assert set(hv.workers) == {"bmhv.mq0"}
        _kick_one_read_per_queue(sim, blk, bond, port)
        for qi in range(N_QUEUES):
            assert hv.queue_entries_handled[("blk", qi)] == 1

    def test_double_start_rejected(self):
        sim, hive, guest, blk, bond, port, hv = _rig(passthrough=True)
        with pytest.raises(RuntimeError, match="already started"):
            hv.start()

    def test_stop_kills_queue_workers(self):
        sim, hive, guest, blk, bond, port, hv = _rig(passthrough=True)
        hv.stop()
        sim.run(until=sim.now + 1e-4)
        assert not hv.is_polling
        assert hv.workers == {}

    @pytest.mark.parametrize("passthrough", [False, True],
                             ids=["mediated", "passthrough"])
    def test_queue_registered_after_start_is_served(self, passthrough):
        sim, hive, guest, blk, bond, port, hv = _rig(
            passthrough, late=(N_QUEUES - 1,))
        _kick_one_read_per_queue(sim, blk, bond, port)
        for qi in range(N_QUEUES):
            assert blk.queue(qi).get_used() is not None
            assert hv.queue_entries_handled[("blk", qi)] == 1
        if passthrough:
            assert f"bmhv.mq0.blk.q{N_QUEUES - 1}" in hv.workers


    @pytest.mark.parametrize("passthrough", [False, True],
                             ids=["mediated", "passthrough"])
    def test_respawns_set_one_shadow_hook(self, passthrough):
        sim, hive, guest, blk, bond, port, hv = _rig(passthrough)
        live = hv
        for version in ("2.0", "3.0", "4.0"):
            live, _ = sim.run_process(live_upgrade(sim, live, version))
        # The hook is the live hypervisor's method and holds nothing
        # else: no earlier hook chained behind it.
        hook = port.on_shadow_created
        assert isinstance(hook, functools.partial)
        assert hook.func.__self__ is live and hook.args == ("blk",)
        assert not port.shadows
        _kick_one_read_per_queue(sim, blk, bond, port)
        for qi in range(N_QUEUES):
            bell = live.queue_doorbells[("blk", qi)] if passthrough \
                else live.doorbell
            assert port.shadows[qi].on_publish == bell.ring
            assert blk.queue(qi).get_used() is not None
            assert live.queue_entries_handled[("blk", qi)] == 1

class TestPassthroughSnapshot:
    def test_snapshot_round_trips_per_queue_state(self):
        sim, hive, guest, blk, bond, port, hv = _rig(passthrough=True)
        _kick_one_read_per_queue(sim, blk, bond, port)
        state = hv.snapshot_state()
        assert state["queue_entries"] == {f"blk:{qi}": 1
                                          for qi in range(N_QUEUES)}
        assert set(state["queue_doorbells"]) == {f"blk:{qi}"
                                                 for qi in range(N_QUEUES)}

        # A rebuilt shell with the same handlers adopts the state.
        sim2, hive2, guest2, blk2, bond2, port2, hv2 = _rig(passthrough=True)
        hv2.restore_state(state)
        assert hv2.queue_entries_handled == hv.queue_entries_handled

    def test_restore_rejects_unregistered_queue_doorbell(self):
        sim, hive, guest, blk, bond, port, hv = _rig(passthrough=True)
        state = hv.snapshot_state()
        state["queue_doorbells"]["blk:9"] = (
            state["queue_doorbells"]["blk:0"])
        sim2, hive2, guest2, blk2, bond2, port2, hv2 = _rig(passthrough=True)
        with pytest.raises(RuntimeError, match="never registered"):
            hv2.restore_state(state)
