"""Warm-started testbeds are indistinguishable from cold-booted ones.

The acceptance bar for the snapshot machinery: for the figure
experiments, ``mode="warm"`` (restore a booted testbed from a kernel
snapshot) must produce rows bit-identical to ``mode="booted"`` (boot
every bm-guest through the virtio-blk path) while popping strictly
fewer events — the whole point of warm starts is skipping the boot.
"""

import pickle

import pytest

from repro.backend.limits import RateLimits
from repro.experiments import fig9, fig11
from repro.experiments.common import (
    TestbedBuilder,
    TestbedConfig,
    TestbedSnapshot,
    boot_testbed,
    clear_warm_cache,
    export_warm_cache,
    load_warm_cache,
    make_testbed,
    restore_testbed,
    snapshot_testbed,
    warm_testbed,
)
from repro.parallel import WorkerPool, execute
from repro.sim import SnapshotError, global_event_totals, reset_global_stats
from repro.sim.doorbell import set_idle_skip_default


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_warm_cache()
    yield
    clear_warm_cache()


def _events_popped():
    return global_event_totals().get("events_popped", 0)


class TestExperimentEquivalence:
    @pytest.mark.parametrize("experiment", [fig9, fig11],
                             ids=["fig9", "fig11"])
    def test_warm_rows_bit_identical_with_fewer_events(self, experiment):
        reset_global_stats()
        cold = experiment.run(seed=0, quick=True, mode="booted")
        cold_events = _events_popped()

        # Prime the cache unmeasured (the bench script does the same),
        # then measure a pure warm run: every testbed is a cache hit.
        experiment.run(seed=0, quick=True, mode="warm")
        reset_global_stats()
        warm = experiment.run(seed=0, quick=True, mode="warm")
        warm_events = _events_popped()

        assert warm.rows == cold.rows
        assert [(c.name, c.passed, c.detail) for c in warm.checks] == (
            [(c.name, c.passed, c.detail) for c in cold.checks])
        # The warm run skips boot: strictly fewer events popped.
        assert warm_events < cold_events


class TestTestbedLifecycle:
    def test_snapshot_restore_round_trip(self):
        bed = TestbedBuilder().seed(5).build()
        boot_testbed(bed)
        snap = snapshot_testbed(bed)
        assert isinstance(snap, TestbedSnapshot)
        restored = restore_testbed(snap)
        assert restored.sim.now == bed.sim.now
        assert restored.config == bed.config

    def test_snapshot_pickles(self):
        bed = TestbedBuilder().seed(5).build()
        boot_testbed(bed)
        snap = snapshot_testbed(bed)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.config == snap.config
        restored = restore_testbed(clone)
        assert restored.sim.now == bed.sim.now

    def test_warm_cache_boots_once(self):
        config = TestbedConfig(seed=9)
        warm_testbed(config)  # miss: boots, snapshots, caches
        reset_global_stats()
        warm_testbed(config)  # hit: restore only
        hit_events = _events_popped()
        # A cache hit never replays the ~12k-event boot sequence.
        assert hit_events < 1000
        assert len(export_warm_cache()) == 1

    def test_load_warm_cache_is_setdefault(self):
        config = TestbedConfig(seed=9)
        first = warm_testbed(config)
        snaps = export_warm_cache()
        clear_warm_cache()
        load_warm_cache(snaps)
        load_warm_cache(snaps)  # idempotent
        assert len(export_warm_cache()) == 1
        again = restore_testbed(export_warm_cache()[0])
        assert again.sim.now == first.sim.now

    def test_custom_limits_round_trip_through_config(self):
        builder = (TestbedBuilder().seed(2)
                   .limits(RateLimits.unrestricted())
                   .local_storage())
        config = builder.to_config()
        rebuilt = TestbedBuilder.from_config(config).build()
        assert rebuilt.config == config

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            make_testbed(0, mode="tepid")

    def test_restore_requires_doorbell_idle_skip(self):
        bed = TestbedBuilder().seed(1).build()
        boot_testbed(bed)
        snap = snapshot_testbed(bed)
        old = set_idle_skip_default(False)
        try:
            with pytest.raises(SnapshotError, match="idle"):
                restore_testbed(snap)
        finally:
            set_idle_skip_default(old)


class TestMultiQueueWarmStart:
    """Snapshot/restore round-trips a booted N-queue testbed."""

    N_QUEUES = 3

    def _config(self, passthrough):
        return (TestbedBuilder().seed(4)
                .queues(blk=self.N_QUEUES, workers=self.N_QUEUES,
                        passthrough=passthrough)
                .to_config())

    def _drive(self, bed):
        """Run an identical per-queue ring workload; exact records."""
        from repro.faults import RingBlkLoad

        loads = [RingBlkLoad(bed.sim, bed.bm, bed.hive.storage,
                             n_requests=4, queue_index=qi,
                             offset_s=bed.sim.now + qi * 25e-6)
                 for qi in range(self.N_QUEUES)]
        for load in loads:
            load.install()
        for load in loads:
            bed.sim.spawn(load.run())
        bed.sim.run()
        assert all(load.done for load in loads)
        return [load.records for load in loads]

    @pytest.mark.parametrize("passthrough", [False, True],
                             ids=["mediated", "passthrough"])
    def test_mq_booted_and_warm_evolve_identically(self, passthrough):
        config = self._config(passthrough)
        cold = boot_testbed(TestbedBuilder.from_config(config).build())
        warm = warm_testbed(config)
        assert warm.sim.now == cold.sim.now
        assert warm.bm.blk_device.n_queues == self.N_QUEUES
        # Bit-identical future: the same workload on the restored bed
        # produces exactly the records the cold-booted bed produces.
        assert self._drive(warm) == self._drive(cold)

    def test_mq_knobs_round_trip_through_config(self):
        config = self._config(passthrough=True)
        rebuilt = TestbedBuilder.from_config(config).build()
        assert rebuilt.config == config
        assert rebuilt.profile.queues.blk_queues == self.N_QUEUES
        assert rebuilt.profile.queues.passthrough
        assert rebuilt.hive.hypervisors[rebuilt.bm.name].passthrough


class TestWarmJobsThroughPool:
    def test_warm_snapshots_ship_to_workers(self, load_script):
        # Prime locally, ship the snapshots with the job, and let a
        # clean worker process (no warm cache of its own) run warm.
        fig9.run(seed=0, quick=True, mode="warm")
        snaps = export_warm_cache()
        assert snaps

        experiment_job = load_script("export_bench").experiment_job
        cold_job = experiment_job("fig9", mode="booted")
        warm_job = experiment_job("fig9", mode="warm", warm_snapshots=snaps)
        assert cold_job.key != warm_job.key
        with WorkerPool(2) as pool:
            results = pool.run([cold_job, warm_job])
        cold, warm = results[cold_job.key], results[warm_job.key]
        assert warm.payload.rows == cold.payload.rows
        assert (warm.events["events_popped"]
                < cold.events["events_popped"])

    def test_mode_none_keeps_historical_key(self, load_script):
        job = load_script("export_bench").experiment_job("fig9", seed=3)
        assert job.key == "experiment:fig9:seed3"
        result = execute(job)
        assert result.payload.passed
