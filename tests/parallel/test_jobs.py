"""Jobs: pickling, execution bracketing, and the shipped job functions."""

import pickle

import pytest

from repro.chaos import sweep_campaign
from repro.experiments import (chaos_campaign, region_scale, run_experiment,
                               seed_summary)
from repro.experiments.base import Check, ExperimentResult
from repro.parallel import Job, execute


class TestPickling:
    @pytest.mark.parametrize("job", [
        Job("experiment:fig9:seed3", run_experiment, ("fig9", 3, False)),
        Job("shard:region_scale:seed1:2", region_scale.run_shard,
            (region_scale.shard_plan(seed=1, quick=True)[2],)),
        Job("chaos:seed7", sweep_campaign, (7, True, 50)),
        Job("sweep:seed4", seed_summary, ("fig13", 4, True)),
    ])
    def test_jobs_round_trip(self, job):
        assert pickle.loads(pickle.dumps(job)) == job

    def test_experiment_result_round_trips_through_pickle(self):
        result = ExperimentResult(
            "fig0", "title", rows=[{"a": 1, "b": 2.5}],
            checks=[Check("c", True, "d"), Check("e", False)],
            notes="n")
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.passed is False


class TestExecute:
    def test_collects_per_job_event_totals(self):
        result = execute(Job("fig13", run_experiment, ("fig13", 0, True)))
        assert result.key == "fig13"
        assert result.payload.passed
        assert result.events["events_popped"] > 0
        assert result.wall_s > 0.0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            execute(Job("nope", run_experiment, ("nope", 0, True)))

    def test_experiment_job_keeps_historical_key(self, load_script):
        job = load_script("export_bench").experiment_job("fig9", seed=3)
        assert job.key == "experiment:fig9:seed3"
        result = execute(job)
        assert result.payload.passed


class TestExperimentShards:
    def test_chaos_campaign_declares_shards(self, load_script):
        plan = load_script("export_bench").build_plan(
            ["chaos_campaign", "fig9"])
        specs = chaos_campaign.shard_plan(seed=0, quick=True)
        # A shardable experiment ships its specs directly, one job each.
        assert [job.fn for job in plan["chaos_campaign"]] == (
            [chaos_campaign.run_shard] * len(specs))
        assert [job.args for job in plan["chaos_campaign"]] == (
            [(spec,) for spec in specs])
        assert [job.fn for job in plan["fig9"]] == [run_experiment]


class TestSeedSweepPayload:
    def test_payload_shape(self):
        payload = seed_summary("fig13", seed=2)
        assert payload["seed"] == 2
        assert payload["experiment"] == "fig13"
        assert payload["passed"] is True
        assert payload["checks_passed"] == payload["checks_total"]
        assert payload["failed_checks"] == []
        assert payload["row_count"] > 0
        assert len(payload["rows_sha256"]) == 64
        assert all(isinstance(v, float) for v in payload["metrics"].values())

    def test_digest_is_seed_stable(self):
        a = seed_summary("fig13", seed=5)
        b = seed_summary("fig13", seed=5)
        c = seed_summary("fig13", seed=6)
        assert a["rows_sha256"] == b["rows_sha256"]
        assert a["rows_sha256"] != c["rows_sha256"]


class TestChaosCampaignJob:
    """One chaos-sweep seed, as a job ships it (``sweep_campaign``)."""

    def test_clean_campaign_payload(self):
        payload = sweep_campaign(0)
        assert payload["seed"] == 0
        assert payload["failed"] is False
        assert payload["minimized_plan"] is None
        entry = payload["entry"]
        assert entry["failed"] is False
        assert entry["violations"] == []
        assert "shrink" not in entry

    def test_regression_probe_fails_and_shrinks(self):
        payload = sweep_campaign(0, inject_regression=True, shrink_runs=40)
        assert payload["failed"] is True
        assert payload["entry"]["shrink"]["minimal_faults"] >= 1
        plan = payload["minimized_plan"]
        assert plan is not None
        assert plan["json"].endswith("\n")
        assert plan["summary"]
