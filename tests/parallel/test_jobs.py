"""Job specs: pickling, execution bracketing, and payload shapes."""

import pickle

import pytest

from repro.experiments.base import Check, ExperimentResult
from repro.parallel import (ChaosCampaignJob, ExperimentJob,
                            ExperimentShardJob, SeedSweepJob, execute,
                            is_shardable, resolve_profile)


class TestPickling:
    @pytest.mark.parametrize("job", [
        ExperimentJob("fig9", seed=3, quick=False),
        ExperimentShardJob("chaos_campaign", shard=2, seed=1),
        ChaosCampaignJob(7, inject_regression=True, shrink_runs=50),
        SeedSweepJob("fig13", seed=4, profile="paper"),
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

    def test_experiment_result_round_trips_through_dict(self):
        result = ExperimentResult(
            "fig0", "title", rows=[{"a": 1}],
            checks=[Check("c", True, "d")], notes="n")
        assert ExperimentResult.from_dict(result.as_dict()) == result


class TestExecute:
    def test_collects_per_job_event_totals(self):
        result = execute(ExperimentJob("fig13"))
        assert result.key == "experiment:fig13:seed0"
        assert result.payload.passed
        assert result.events["events_popped"] > 0
        assert result.wall_s > 0.0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            execute(ExperimentJob("nope"))

    def test_profile_rejected_when_runner_cannot_take_it(self):
        with pytest.raises(ValueError, match="profile"):
            execute(ExperimentJob("fig13", profile="paper"))

    def test_resolve_profile(self):
        assert resolve_profile(None) is None
        assert resolve_profile("paper") is not None
        with pytest.raises(ValueError, match="unknown profile"):
            resolve_profile("turbo")


class TestExperimentShards:
    def test_chaos_campaign_declares_shards(self):
        assert is_shardable("chaos_campaign")
        assert not is_shardable("fig9")

    def test_shard_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="shard"):
            execute(ExperimentShardJob("chaos_campaign", shard=99))

    def test_unsharded_experiment_rejected(self):
        with pytest.raises(ValueError, match="not shardable"):
            execute(ExperimentShardJob("fig9", shard=0))


class TestSeedSweepPayload:
    def test_payload_shape(self):
        result = execute(SeedSweepJob("fig13", seed=2))
        payload = result.payload
        assert payload["seed"] == 2
        assert payload["experiment"] == "fig13"
        assert payload["passed"] is True
        assert payload["checks_passed"] == payload["checks_total"]
        assert payload["failed_checks"] == []
        assert payload["row_count"] > 0
        assert len(payload["rows_sha256"]) == 64
        assert all(isinstance(v, float) for v in payload["metrics"].values())

    def test_digest_is_seed_stable(self):
        a = execute(SeedSweepJob("fig13", seed=5)).payload
        b = execute(SeedSweepJob("fig13", seed=5)).payload
        c = execute(SeedSweepJob("fig13", seed=6)).payload
        assert a["rows_sha256"] == b["rows_sha256"]
        assert a["rows_sha256"] != c["rows_sha256"]


class TestChaosCampaignJob:
    def test_clean_campaign_payload(self):
        result = execute(ChaosCampaignJob(0))
        payload = result.payload
        assert payload["seed"] == 0
        assert payload["failed"] is False
        assert payload["minimized_plan"] is None
        entry = payload["entry"]
        assert entry["failed"] is False
        assert entry["violations"] == []
        assert "shrink" not in entry

    def test_regression_probe_fails_and_shrinks(self):
        result = execute(ChaosCampaignJob(0, inject_regression=True,
                                          shrink_runs=40))
        payload = result.payload
        assert payload["failed"] is True
        assert payload["entry"]["shrink"]["minimal_faults"] >= 1
        plan = payload["minimized_plan"]
        assert plan is not None
        assert plan["json"].endswith("\n")
        assert plan["summary"]
