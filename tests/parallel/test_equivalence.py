"""End-to-end determinism: parallel output == serial output.

These are the in-process versions of the CI ``bench-parallel`` gate:
the same jobs run inline and through a 2-worker pool, and every
non-volatile byte of the merged artifacts must match.
"""

from repro.chaos import sweep_campaign
from repro.experiments import chaos_campaign, run_experiment
from repro.parallel import Job, bench_diff, run_suite

SMALL_EXPERIMENTS = ["fig13", "fig14", "iobond_micro", "cost"]


def _shard_jobs():
    specs = chaos_campaign.shard_plan(seed=0, quick=True)
    return [Job(f"shard:{k}", chaos_campaign.run_shard, (spec,))
            for k, spec in enumerate(specs)]


class TestBenchEquivalence:
    def test_parallel_bench_matches_serial_modulo_wall(self, load_script):
        export_bench = load_script("export_bench")
        plan = export_bench.build_plan(SMALL_EXPERIMENTS)
        jobs = [job for group in plan.values() for job in group]
        header = {"seed": 0, "quick": True}
        serial_report, serial_results = export_bench.merge_bench(
            plan, run_suite(jobs, n_jobs=1), header)
        parallel_report, parallel_results = export_bench.merge_bench(
            plan, run_suite(jobs, n_jobs=2), header)
        assert bench_diff(serial_report, parallel_report) == []
        for name in SMALL_EXPERIMENTS:
            assert serial_results[name].rows == parallel_results[name].rows

    def test_event_counts_identical_not_just_close(self):
        jobs = [Job(name, run_experiment, (name, 0, True))
                for name in ("fig13", "fig14")]
        serial = run_suite(jobs, n_jobs=1)
        parallel = run_suite(jobs, n_jobs=2)
        for job in jobs:
            assert serial[job.key].events == parallel[job.key].events


class TestShardedChaosCampaign:
    def test_sharded_merge_equals_direct_run(self):
        jobs = _shard_jobs()
        results = run_suite(jobs, n_jobs=2)
        merged = chaos_campaign.merge_shards(
            0, True, [results[job.key].payload for job in jobs])
        direct = chaos_campaign.run(seed=0, quick=True)
        assert merged.rows == direct.rows
        assert [(c.name, c.passed, c.detail) for c in merged.checks] == (
            [(c.name, c.passed, c.detail) for c in direct.checks])
        assert merged.notes == direct.notes
        assert merged.passed

    def test_shard_events_sum_to_serial_totals(self):
        parallel = run_suite(_shard_jobs(), n_jobs=2)
        serial = run_suite([Job("whole", run_experiment,
                                ("chaos_campaign", 0, True))], n_jobs=1)
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
        assert summed == serial["whole"].events


class TestChaosSweepEquivalence:
    def test_parallel_sweep_report_byte_identical(self, load_script):
        import json

        chaos_sweep = load_script("chaos_sweep")
        seeds = [0, 1]
        jobs = [Job(chaos_sweep.campaign_key(seed), sweep_campaign, (seed,))
                for seed in seeds]
        header = {"inject_regression": False, "seeds": seeds}
        serial, _, _ = chaos_sweep.merge_chaos(
            seeds, run_suite(jobs, n_jobs=1), header)
        parallel, _, _ = chaos_sweep.merge_chaos(
            seeds, run_suite(jobs, n_jobs=2), header)
        assert (json.dumps(serial, indent=2, sort_keys=True)
                == json.dumps(parallel, indent=2, sort_keys=True))
