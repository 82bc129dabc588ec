"""Deterministic merging: ordering, volatile stripping, aggregation.

``bench_diff``/``strip_volatile`` live in :mod:`repro.parallel.merge`;
each payload fold lives in the script that plans its jobs.
"""

import pytest

from repro.experiments import run_experiment
from repro.parallel import Job, JobResult, bench_diff, strip_volatile


def _result(key, payload, events=None, wall=0.5):
    return JobResult(key=key, payload=payload,
                     events=events or {"events_popped": 10}, wall_s=wall)


class TestStripVolatile:
    def test_removes_wall_and_metadata_fields_recursively(self):
        report = {
            "total_wall_s": 1.0,
            "timestamp": "now",
            "git_commit": "abc",
            "jobs": 8,
            "experiments": {"fig9": {"wall_s": 0.5, "events": {"e": 1}}},
        }
        assert strip_volatile(report) == {
            "experiments": {"fig9": {"events": {"e": 1}}}}

    def test_original_untouched(self):
        report = {"wall_s": 1.0, "keep": [1, 2]}
        strip_volatile(report)
        assert report == {"wall_s": 1.0, "keep": [1, 2]}


class TestBenchDiff:
    def test_equivalent_modulo_volatile(self):
        a = {"seed": 0, "wall_s": 1.0, "experiments": {"f": {"events": {"e": 3}}}}
        b = {"seed": 0, "wall_s": 9.9, "experiments": {"f": {"events": {"e": 3}}}}
        assert bench_diff(a, b) == []

    def test_reports_value_and_key_differences(self):
        a = {"seed": 0, "x": {"e": 3}}
        b = {"seed": 1, "x": {"e": 4}, "extra": True}
        differences = bench_diff(a, b)
        assert any("seed" in d for d in differences)
        assert any("x.e" in d for d in differences)
        assert any("extra" in d for d in differences)

    def test_reports_list_differences(self):
        assert bench_diff({"l": [1, 2]}, {"l": [1, 3]}) == ["l[1]: 2 != 3"]
        assert bench_diff({"l": [1]}, {"l": [1, 2]}) == ["l: length 1 != 2"]


class TestQueueConfigMismatch:
    def _pair(self):
        a = {"queue_config": {"blk_queues": 1, "passthrough": False},
             "experiments": {"f": {"events": {"e": 3}}}}
        b = {"queue_config": {"blk_queues": 4, "passthrough": True},
             "experiments": {"f": {"events": {"e": 99}}}}
        return a, b

    def test_mismatch_short_circuits_the_row_diff(self):
        """Reports from different queue configs are incomparable: the
        single surfaced difference names the config, not the rows."""
        a, b = self._pair()
        differences = bench_diff(a, b)
        assert len(differences) == 1
        assert "queue_config mismatch" in differences[0]
        assert "not comparable" in differences[0]
        assert "blk_queues: 1 vs 4" in differences[0]
        assert not any("experiments" in d for d in differences)

    def test_matching_config_diffs_rows_normally(self):
        a, b = self._pair()
        b["queue_config"] = dict(a["queue_config"])
        assert bench_diff(a, b) == ["experiments.f.events.e: 3 != 99"]

    def test_reports_without_config_diff_normally(self):
        """Older reports (no queue_config header) keep the historical
        row-by-row behavior."""
        a, b = self._pair()
        del a["queue_config"], b["queue_config"]
        assert bench_diff(a, b) == ["experiments.f.events.e: 3 != 99"]

    def test_ignore_queue_config_opts_out(self):
        a, b = self._pair()
        differences = bench_diff(a, b, ignore_keys=("queue_config",))
        assert differences == ["experiments.f.events.e: 3 != 99"]


class TestTopologyMismatch:
    def _pair(self):
        a = {"topology": {"n_racks": 0, "n_spines": 1},
             "experiments": {"f": {"events": {"e": 3}}}}
        b = {"topology": {"n_racks": 2, "n_spines": 2},
             "experiments": {"f": {"events": {"e": 99}}}}
        return a, b

    def test_mismatch_short_circuits_the_row_diff(self):
        """Single-hop vs routed-Clos reports are incomparable: the one
        surfaced difference names the topology, not the rows."""
        a, b = self._pair()
        differences = bench_diff(a, b)
        assert len(differences) == 1
        assert "topology mismatch" in differences[0]
        assert "not comparable" in differences[0]
        assert "n_racks: 0 vs 2" in differences[0]
        assert not any("experiments" in d for d in differences)

    def test_matching_topology_diffs_rows_normally(self):
        a, b = self._pair()
        b["topology"] = dict(a["topology"])
        assert bench_diff(a, b) == ["experiments.f.events.e: 3 != 99"]

    def test_reports_without_topology_diff_normally(self):
        """Pre-fabric reports (no topology header) keep the historical
        row-by-row behavior."""
        a, b = self._pair()
        del a["topology"], b["topology"]
        assert bench_diff(a, b) == ["experiments.f.events.e: 3 != 99"]

    def test_ignore_topology_opts_out(self):
        a, b = self._pair()
        differences = bench_diff(a, b, ignore_keys=("topology",))
        assert differences == ["experiments.f.events.e: 3 != 99"]


class TestWallTolerance:
    def _pair(self, a_wall, b_wall):
        a = {"total_wall_s": a_wall, "timestamp": "x",
             "experiments": {"f": {"wall_s": a_wall / 2, "events": {"e": 1}}}}
        b = {"total_wall_s": b_wall, "timestamp": "y",
             "experiments": {"f": {"wall_s": b_wall / 2, "events": {"e": 1}}}}
        return a, b

    def test_within_tolerance_passes(self):
        a, b = self._pair(1.0, 1.2)
        assert bench_diff(a, b, wall_tolerance=0.25) == []

    def test_beyond_tolerance_reported(self):
        a, b = self._pair(1.0, 2.0)
        differences = bench_diff(a, b, wall_tolerance=0.25)
        assert len(differences) == 2
        assert all("differs by more than 25%" in d for d in differences)

    def test_tolerance_still_ignores_metadata(self):
        a, b = self._pair(1.0, 1.0)
        a["git_commit"], b["git_commit"] = "abc", "def"
        assert bench_diff(a, b, wall_tolerance=0.0) == []

    def test_zero_tolerance_requires_exact_wall(self):
        a, b = self._pair(1.0, 1.0001)
        assert bench_diff(a, b, wall_tolerance=0.0) != []
        assert bench_diff(a, a, wall_tolerance=0.0) == []

    def test_non_volatile_differences_still_reported(self):
        a, b = self._pair(1.0, 1.0)
        b["experiments"]["f"]["events"]["e"] = 2
        differences = bench_diff(a, b, wall_tolerance=0.25)
        assert differences == ["experiments.f.events.e: 1 != 2"]

    def test_wall_floor_absorbs_small_absolute_differences(self):
        # 3ms vs 15ms is 5x relative but pure scheduler jitter; an
        # absolute floor lets the gate focus on substantial runs.
        a, b = self._pair(0.006, 0.030)
        assert bench_diff(a, b, wall_tolerance=0.25) != []
        assert bench_diff(a, b, wall_tolerance=0.25, wall_floor_s=0.25) == []

    def test_ignore_keys_extends_the_ignored_set(self):
        a, b = self._pair(1.0, 1.0)
        a["experiments"]["f"]["events"]["bucket_overflows"] = 0
        b["experiments"]["f"]["events"]["bucket_overflows"] = 1680
        assert bench_diff(a, b) != []
        assert bench_diff(a, b, ignore_keys=("bucket_overflows",)) == []


def run_shard(spec):
    """Stand-in shard function; merge_bench folds via its module."""


def merge_shards(seed, quick, payloads):
    return {"seed": seed, "quick": quick, "payloads": payloads}


class TestMergeBench:
    @pytest.fixture
    def merge_bench(self, load_script):
        return load_script("export_bench").merge_bench

    def test_experiment_order_follows_jobs_not_completion(self, merge_bench):
        plan = {name: [Job(name, run_experiment, (name, 0, True))]
                for name in ("b_exp", "a_exp")}
        results = {  # dict insertion order is completion order here
            "a_exp": _result("a_exp", "a"),
            "b_exp": _result("b_exp", "b"),
        }
        report, experiment_results = merge_bench(plan, results, {"seed": 0})
        assert list(report["experiments"]) == ["b_exp", "a_exp"]
        assert experiment_results == {"b_exp": "b", "a_exp": "a"}
        assert report["seed"] == 0
        assert report["total_wall_s"] == pytest.approx(1.0)

    def test_events_summed_within_experiment(self, merge_bench):
        # Two shards of one experiment fold into one entry, and their
        # payloads (in plan order) into the producing module's merge.
        jobs = [Job("s0", run_shard, (0,)), Job("s1", run_shard, (1,))]
        results = {
            "s1": _result("s1", "p1", {"events_popped": 5}),
            "s0": _result("s0", "p0", {"events_popped": 7}),
        }
        report, experiment_results = merge_bench(
            {"e": jobs}, results, {"seed": 3, "quick": True})
        assert report["experiments"]["e"]["events"]["events_popped"] == 12
        assert experiment_results["e"] == {
            "seed": 3, "quick": True, "payloads": ["p0", "p1"]}

    def test_queue_len_max_folds_as_high_water_mark(self, merge_bench):
        # queue_len_max is a depth high-water mark, not traffic: two
        # shards with maxima 40 and 25 merge to 40, never 65 (mirrors
        # global_event_totals across simulators).
        jobs = [Job("s0", run_shard, (0,)), Job("s1", run_shard, (1,))]
        results = {
            "s0": _result("s0", None,
                          {"events_popped": 7, "queue_len_max": 40}),
            "s1": _result("s1", None,
                          {"events_popped": 5, "queue_len_max": 25}),
        }
        report, _ = merge_bench({"e": jobs}, results,
                                {"seed": 0, "quick": True})
        assert report["experiments"]["e"]["events"] == {
            "events_popped": 12, "queue_len_max": 40}


class TestMergeChaos:
    @pytest.fixture
    def chaos_sweep(self, load_script):
        return load_script("chaos_sweep")

    def _payload(self, seed, failed=False, plan=None):
        entry = {"failed": failed, "n_faults": 2, "monitor_samples": 5}
        if failed:
            entry["shrink"] = {"minimal_faults": 1}
        return {"seed": seed, "failed": failed, "entry": entry,
                "minimized_plan": plan}

    def test_campaigns_keyed_in_seed_order(self, chaos_sweep):
        seeds = (2, 0, 1)
        key = chaos_sweep.campaign_key
        results = {key(seed): _result(key(seed), self._payload(seed))
                   for seed in seeds}
        report, minimized, failures = chaos_sweep.merge_chaos(
            seeds, results, {"x": 1})
        assert list(report["campaigns"]) == ["0", "1", "2"]
        assert report["failures"] == 0 == failures
        assert minimized == {}

    def test_failures_counted_and_plans_collected(self, chaos_sweep):
        plan = {"json": "{}\n", "summary": "s", "describe": "d"}
        key = chaos_sweep.campaign_key
        results = {
            key(0): _result(key(0), self._payload(0)),
            key(1): _result(key(1), self._payload(1, failed=True, plan=plan)),
        }
        report, minimized, failures = chaos_sweep.merge_chaos(
            [0, 1], results, {})
        assert failures == 1
        assert report["failures"] == 1
        assert minimized == {1: plan}


class TestMergeSweep:
    @pytest.fixture
    def sweep(self, load_script):
        return load_script("sweep")

    def _payload(self, seed, passed=True, digest="d0", qps=100.0):
        return {
            "seed": seed, "experiment": "e", "passed": passed,
            "checks_passed": 3 if passed else 2, "checks_total": 3,
            "failed_checks": [] if passed else ["c"],
            "row_count": 4, "rows_sha256": digest,
            "metrics": {"qps": qps},
        }

    def test_rows_in_seed_order_with_aggregates(self, sweep):
        key = sweep.seed_key
        results = {
            key(1): _result(key(1), self._payload(1, qps=200.0)),
            key(0): _result(key(0), self._payload(0, qps=100.0)),
            key(2): _result(key(2), self._payload(2, qps=300.0)),
        }
        report = sweep.merge_sweep((1, 0, 2), results)
        assert [row["seed"] for row in report["per_seed"]] == [0, 1, 2]
        aggregate = report["aggregate"]
        assert aggregate["n_seeds"] == 3
        assert aggregate["all_passed"] is True
        assert aggregate["distinct_row_digests"] == 1
        assert aggregate["metrics"]["qps"]["mean"] == pytest.approx(200.0)
        assert aggregate["metrics"]["qps"]["min"] == 100.0
        assert aggregate["metrics"]["qps"]["max"] == 300.0

    def test_failed_seed_flips_all_passed(self, sweep):
        key = sweep.seed_key
        results = {
            key(0): _result(key(0), self._payload(0)),
            key(1): _result(key(1),
                            self._payload(1, passed=False, digest="d1")),
        }
        aggregate = sweep.merge_sweep([0, 1], results)["aggregate"]
        assert aggregate["passed_seeds"] == 1
        assert aggregate["all_passed"] is False
        assert aggregate["distinct_row_digests"] == 2


class TestAbsentVersusZero:
    """Absent keys equal all-zero values: old BENCH files wrote zero
    ``events``/``queue_depth`` blocks where new ones omit the block."""

    def test_missing_all_zero_events_block_is_not_a_difference(self):
        old = {"experiments": {"cost": {
            "events": {"events_popped": 0, "events_pushed": 0},
            "queue_depth": {"max": 0, "mean": 0.0}}}}
        new = {"experiments": {"cost": {}}}
        assert bench_diff(old, new) == []
        assert bench_diff(new, old) == []

    def test_nonzero_block_still_diffs(self):
        old = {"experiments": {"f": {"events": {"events_popped": 7}}}}
        new = {"experiments": {"f": {}}}
        assert bench_diff(old, new) == ["experiments.f.events: only in first"]
        assert bench_diff(new, old) == ["experiments.f.events: only in second"]

    def test_false_and_empty_string_are_not_zero_like(self):
        a = {"x": {"flag": False}}
        b = {"x": {}}
        assert bench_diff(a, b) == ["x.flag: only in first"]
        assert bench_diff({"x": {"s": ""}}, b) == ["x.s: only in first"]

    def test_empty_containers_are_zero_like(self):
        assert bench_diff({"x": {"rows": []}}, {"x": {}}) == []
        assert bench_diff({"x": {"rows": {}}}, {"x": {}}) == []

    def test_throughput_subtree_is_volatile(self):
        a = {"experiments": {"r": {"scenario": {
            "rungs": {"racks4": {"placements": 10}},
            "throughput": {"racks4": {"placements_per_s": 99.0}}}}}}
        b = {"experiments": {"r": {"scenario": {
            "rungs": {"racks4": {"placements": 10}},
            "throughput": {"racks4": {"placements_per_s": 12345.0}}}}}}
        assert bench_diff(a, b) == []
