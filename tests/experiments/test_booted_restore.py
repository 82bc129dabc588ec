"""Kernel snapshot/restore of a booted testbed.

The chaos checkpoint snapshots freshly built scenarios at t=0. These
tests snapshot a testbed *after* :func:`boot_testbed`, so the restore
has to carry non-initial participant state — hypervisor life-cycle,
doorbell anchors, token-bucket levels and per-queue doorbells — for
the rebuilt bed to evolve exactly like the booted original.
"""

import pickle

import pytest

from repro.experiments import common
from repro.experiments.common import DEFAULT_BOOT_IMAGE, boot_testbed
from repro.faults import RingBlkLoad
from repro.guest.image import VmImage
from repro.virtio.device import full_init


def _builder(n_queues=1, passthrough=False):
    return (common.TestbedBuilder().seed(4)
            .queues(blk=n_queues, workers=n_queues, passthrough=passthrough))


def _restore_booted(builder, snapshot):
    """Rebuild ``builder``'s bed as a booted shell and adopt ``snapshot``.

    Re-applies the structural side effects of ``BmHiveServer.boot_guest``
    (device init, one blk handler per queue, poll-loop start) without
    running the boot, parks the fresh poll loops, then restores: clock,
    RNG streams and every participant's time-dependent state come from
    the snapshot.
    """
    bed = builder.build()
    image = VmImage(name=DEFAULT_BOOT_IMAGE)
    for hive in bed.hives:
        for guest in hive.guests:
            full_init(guest.blk_device)
            for qi in range(guest.blk_device.n_queues):
                guest.hypervisor.register_handler(
                    "blk", qi, hive.make_blk_handler(guest, image, qi))
            guest.hypervisor.start()
            guest.image = image
    bed.sim.run()  # one empty drain pass per poll loop -> all parked
    bed.sim.restore(snapshot)
    return bed


def _state(sim):
    """Kernel state minus the event counters, which restore zeroes."""
    snapshot = sim.snapshot()
    return (snapshot.now, snapshot.next_counter, snapshot.rng_states,
            snapshot.participants)


def _drive(bed):
    """Run the same per-queue ring workload; return its exact records."""
    n_queues = bed.bm.blk_device.n_queues
    loads = [RingBlkLoad(bed.sim, bed.bm, bed.hive.storage,
                         n_requests=4, queue_index=qi,
                         offset_s=bed.sim.now + qi * 25e-6)
             for qi in range(n_queues)]
    for load in loads:
        load.install()
    for load in loads:
        bed.sim.spawn(load.run())
    bed.sim.run()
    assert all(load.done for load in loads)
    return [load.records for load in loads]


class TestBootedRestore:
    def test_snapshot_restore_round_trip(self):
        builder = _builder()
        booted = boot_testbed(builder.build())
        restored = _restore_booted(builder, booted.sim.snapshot())
        assert restored.sim.now == booted.sim.now > 0
        # Every participant holds its booted state, not the fresh one.
        assert _state(restored.sim) == _state(booted.sim)

    def test_snapshot_pickles(self):
        builder = _builder()
        booted = boot_testbed(builder.build())
        snapshot = pickle.loads(pickle.dumps(booted.sim.snapshot()))
        restored = _restore_booted(builder, snapshot)
        assert restored.sim.now == booted.sim.now

    @pytest.mark.parametrize("n_queues,passthrough", [
        (1, False), (3, False), (3, True),
    ], ids=["1q", "3q-mediated", "3q-passthrough"])
    def test_ring_records_match(self, n_queues, passthrough):
        builder = _builder(n_queues, passthrough)
        booted = boot_testbed(builder.build())
        restored = _restore_booted(builder, booted.sim.snapshot())
        assert restored.bm.blk_device.n_queues == n_queues
        assert restored.bm.hypervisor.passthrough == passthrough
        assert _state(restored.sim) == _state(booted.sim)
        assert _drive(restored) == _drive(booted)
        assert _state(restored.sim) == _state(booted.sim)
