"""End-to-end determinism: parallel output == serial output.

These are the in-process versions of the CI ``bench-parallel`` gate:
the same jobs run inline and through a 2-worker pool, and every
non-volatile byte of the merged artifacts must match.
"""

import pytest

from repro.experiments import chaos_campaign
from repro.parallel import (ChaosCampaignJob, ExperimentShardJob, WorkerPool,
                            bench_diff, merge_bench, merge_chaos, run_suite)
from repro.parallel.jobs import ExperimentJob

SMALL_EXPERIMENTS = ["fig13", "fig14", "iobond_micro", "cost"]


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as shared:
        yield shared


class TestBenchEquivalence:
    def test_parallel_bench_matches_serial_modulo_wall(self, pool):
        jobs = [ExperimentJob(name) for name in SMALL_EXPERIMENTS]
        header = {"seed": 0, "quick": True}
        serial_report, serial_results = merge_bench(
            jobs, run_suite(jobs, n_jobs=1), header)
        parallel_report, parallel_results = merge_bench(
            jobs, pool.run(jobs), header)
        assert bench_diff(serial_report, parallel_report) == []
        for name in SMALL_EXPERIMENTS:
            assert serial_results[name].rows == parallel_results[name].rows

    def test_event_counts_identical_not_just_close(self, pool):
        jobs = [ExperimentJob("fig13"), ExperimentJob("fig14")]
        serial = run_suite(jobs, n_jobs=1)
        parallel = pool.run(jobs)
        for job in jobs:
            assert serial[job.key].events == parallel[job.key].events


class TestShardedChaosCampaign:
    def test_sharded_merge_equals_direct_run(self, pool):
        shards = chaos_campaign.shard_plan(seed=0, quick=True)
        jobs = [ExperimentShardJob("chaos_campaign", shard=k)
                for k in range(len(shards))]
        results = pool.run(jobs)
        merged = chaos_campaign.merge_shards(
            0, True, [results[job.key].payload for job in jobs])
        direct = chaos_campaign.run(seed=0, quick=True)
        assert merged.rows == direct.rows
        assert [(c.name, c.passed, c.detail) for c in merged.checks] == (
            [(c.name, c.passed, c.detail) for c in direct.checks])
        assert merged.notes == direct.notes
        assert merged.passed

    def test_shard_events_sum_to_serial_totals(self, pool):
        shards = chaos_campaign.shard_plan(seed=0, quick=True)
        jobs = [ExperimentShardJob("chaos_campaign", shard=k)
                for k in range(len(shards))]
        parallel = pool.run(jobs)
        serial = run_suite([ExperimentJob("chaos_campaign")], n_jobs=1)
        summed = {}
        for result in parallel.values():
            for counter, value in result.events.items():
                if counter == "queue_len_max":
                    # High-water mark: aggregates by max, not sum
                    # (mirrors global_event_totals).
                    summed[counter] = max(summed.get(counter, 0), value)
                else:
                    summed[counter] = summed.get(counter, 0) + value
        # Shards partition the scenarios exactly, so every summable
        # counter adds up and the max-of-maxes equals the serial
        # high-water mark (each scenario runs in its own simulator).
        assert summed == serial["experiment:chaos_campaign:seed0"].events


class TestChaosSweepEquivalence:
    def test_parallel_sweep_report_byte_identical(self, pool):
        import json

        jobs = [ChaosCampaignJob(seed) for seed in range(2)]
        header = {"inject_regression": False, "seeds": [0, 1]}
        serial, _, _ = merge_chaos(jobs, run_suite(jobs, n_jobs=1), header)
        parallel, _, _ = merge_chaos(jobs, pool.run(jobs), header)
        assert (json.dumps(serial, indent=2, sort_keys=True)
                == json.dumps(parallel, indent=2, sort_keys=True))
