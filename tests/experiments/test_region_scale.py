"""region_scale shard protocol: sharded == serial, rung accounting."""

import pytest

from repro.experiments import region_scale
from repro.parallel import Job, run_suite


@pytest.fixture(scope="module")
def quick_result():
    return region_scale.run(seed=0, quick=True)


def _strip_throughput(rows):
    return [{k: v for k, v in row.items() if k != "throughput"}
            for row in rows]


class TestShardProtocol:
    def test_declares_shard_protocol(self):
        for hook in ("shard_plan", "run_shard", "merge_shards"):
            assert callable(getattr(region_scale, hook))

    def test_plan_covers_rungs_in_order(self):
        plan = region_scale.shard_plan(seed=0, quick=True)
        assert all(isinstance(spec, region_scale.RegionShardJob)
                   for spec in plan)
        assert [(s.rung, s.shard) for s in plan] == [(0, 0), (1, 0), (1, 1)]
        # Shards of a rung split the racks evenly.
        for rung, (racks, n_shards) in enumerate(region_scale.QUICK_RUNGS):
            shards = [s for s in plan if s.rung == rung]
            assert len(shards) == n_shards
            assert sum(s.racks for s in shards) == racks

    def test_full_plan_reaches_million_guest_scale(self):
        plan = region_scale.shard_plan(seed=0, quick=False)
        top_rung = max(s.rung for s in plan)
        top = [s for s in plan if s.rung == top_rung]
        boards = sum(s.racks * s.servers_per_rack * s.boards_per_server
                     for s in top)
        # occupancy * boards / lifetime * duration ~ expected arrivals
        expected = 0.8 * boards / 2.0 * 11.0
        assert expected >= 1_000_000

    def test_shard_seeds_are_distinct(self):
        plan = region_scale.shard_plan(seed=0, quick=False)
        seeds = [s.shard_seed for s in plan]
        assert len(set(seeds)) == len(seeds)

    def test_merge_equals_serial_run(self, quick_result):
        plan = region_scale.shard_plan(seed=0, quick=True)
        payloads = [region_scale.run_shard(spec) for spec in plan]
        merged = region_scale.merge_shards(seed=0, quick=True,
                                           payloads=payloads)
        assert (_strip_throughput(merged.rows)
                == _strip_throughput(quick_result.rows))
        assert [(c.name, c.passed) for c in merged.checks] \
            == [(c.name, c.passed) for c in quick_result.checks]

    def test_parallel_suite_matches_serial(self, quick_result):
        plan = region_scale.shard_plan(seed=0, quick=True)
        jobs = [Job(f"shard{k}", region_scale.run_shard, (spec,))
                for k, spec in enumerate(plan)]
        results = run_suite(jobs, n_jobs=2)
        merged = region_scale.merge_shards(
            seed=0, quick=True,
            payloads=[results[job.key].payload for job in jobs])
        assert (_strip_throughput(merged.rows)
                == _strip_throughput(quick_result.rows))


class TestResultShape:
    def test_checks_pass(self, quick_result):
        failed = [c.name for c in quick_result.failed_checks()]
        assert not failed, failed

    def test_rows_conserve_guests(self, quick_result):
        for row in quick_result.rows:
            assert row["placed"] == row["exits"] + row["running_at_end"]
            assert row["arrivals"] >= row["placed"]

    def test_bench_columns_split_deterministic_and_volatile(self,
                                                            quick_result):
        columns = region_scale.bench_columns(quick_result)
        assert set(columns) == {"rungs", "guest_lifetimes_total",
                                "throughput"}
        assert set(columns["rungs"]) == set(columns["throughput"])
        for label, rung in columns["rungs"].items():
            assert rung["placements"] > 0
            # No wall-derived value outside the volatile subtree.
            assert "placements_per_s" not in rung
            assert "placements_per_s" in columns["throughput"][label]
        assert columns["guest_lifetimes_total"] == sum(
            row["placed"] for row in quick_result.rows)
