"""Smoke tests for the repository scripts and the CLI module entry."""

import json
import math
import os
import pathlib
import pstats
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).parent.parent


def test_export_figures_writes_csvs(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "export_figures.py"),
         str(tmp_path / "results")],
        capture_output=True, text=True, timeout=900,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    csvs = list((tmp_path / "results").glob("*.csv"))
    assert len(csvs) >= 20
    fig13 = (tmp_path / "results" / "fig13.csv").read_text()
    assert "read_only_qps" in fig13.splitlines()[0]


def test_module_cli_entry():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "fig9" in result.stdout


class TestExportBench:
    def test_out_path_carries_commit_and_timestamp(self, tmp_path,
                                                   load_script):
        export_bench = load_script("export_bench")
        out = tmp_path / "bench.json"
        path = export_bench.run(["fig13"], out=str(out))
        assert path == out
        report = json.loads(out.read_text())
        assert report["jobs"] == 1
        assert len(report["git_commit"]) == 40
        assert report["timestamp"].endswith("+00:00")
        assert "fig13" in report["experiments"]
        assert report["experiments"]["fig13"]["events"]["events_popped"] > 0

    def test_auto_numbering_claims_slots_exclusively(self, tmp_path,
                                                      load_script):
        export_bench = load_script("export_bench")
        # Pre-claim slot 0 the way a concurrent run would: the next
        # claim must skip to slot 1 even though slot 0 is still empty
        # (the old exists() scan raced exactly here).
        first = export_bench._claim_bench_path(tmp_path)
        assert first.name == "BENCH_0.json"
        assert first.exists() and first.read_text() == ""
        second = export_bench._claim_bench_path(tmp_path)
        assert second.name == "BENCH_1.json"

    def test_parallel_run_equivalent_to_serial(self, tmp_path, load_script):
        export_bench = load_script("export_bench")
        diff_bench = load_script("diff_bench")
        serial = export_bench.run(["fig13", "fig14"], jobs=1,
                                  out=str(tmp_path / "serial.json"))
        parallel = export_bench.run(["fig13", "fig14"], jobs=2,
                                    out=str(tmp_path / "parallel.json"))
        assert diff_bench.main([str(serial), str(parallel)]) == 0

    def test_diff_bench_flags_real_differences(self, tmp_path, load_script):
        diff_bench = load_script("diff_bench")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"seed": 0, "wall_s": 1.0}))
        b.write_text(json.dumps({"seed": 1, "wall_s": 1.0}))
        assert diff_bench.main([str(a), str(b)]) == 1


class TestSweep:
    def test_parse_seed_range(self, load_script):
        sweep = load_script("sweep")
        assert list(sweep.parse_seed_range("3")) == [0, 1, 2]
        assert list(sweep.parse_seed_range("4:7")) == [4, 5, 6]
        for bad in ("0", "5:5", "7:3"):
            try:
                sweep.parse_seed_range(bad)
            except ValueError:
                continue
            raise AssertionError(f"{bad!r} accepted")

    def test_sweep_reports_per_seed_and_aggregate(self, tmp_path,
                                                  load_script):
        sweep = load_script("sweep")
        out = tmp_path / "sweep.json"
        code = sweep.main(["fig13", "--seeds", "2", "--jobs", "2",
                           "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["experiment"] == "fig13"
        assert [row["seed"] for row in report["per_seed"]] == [0, 1]
        assert report["aggregate"]["all_passed"] is True
        assert report["aggregate"]["n_seeds"] == 2

    def test_unknown_experiment_rejected(self, load_script):
        sweep = load_script("sweep")
        try:
            sweep.main(["not_an_experiment", "--seeds", "2"])
        except SystemExit as exc:
            assert exc.code == 2
        else:
            raise AssertionError("argparse should have exited")


class TestChaosSweep:
    def test_stale_plan_files_do_not_count(self, tmp_path, monkeypatch,
                                           load_script):
        chaos_sweep = load_script("chaos_sweep")
        # A plan an earlier run left behind in the same directory.
        (tmp_path / "chaos_minimized_seed99.json").write_text("{}")

        def failed_without_plan(seed, inject_regression, shrink_runs):
            return {"entry": {"failed": True}, "failed": True,
                    "minimized_plan": None}

        monkeypatch.setattr(chaos_sweep, "sweep_campaign",
                            failed_without_plan)
        code = chaos_sweep.main(["--seeds", "1", "--inject-regression",
                                 "--outdir", str(tmp_path)])
        assert code == 1

def test_refresh_perf_golden_is_stable(tmp_path, monkeypatch, load_script):
    refresh = load_script("refresh_perf_golden")
    target = tmp_path / "golden.json"
    monkeypatch.setattr(refresh, "GOLDEN_PATH", target)
    assert refresh.main() == 0
    committed = json.loads(
        (ROOT / "tests" / "perf" / "golden_event_counts.json").read_text())
    assert json.loads(target.read_text()) == committed


def test_reachability_traces_one_entry(load_script):
    reachability = load_script("reachability")
    from repro.experiments import run_experiment

    recorder = reachability.trace(
        [("table3", lambda _rec: run_experiment("table3", 0, True))])
    pairs = reachability.analyze(recorder)
    reached = {(d.file, d.name) for d, ok in pairs if ok}
    assert ("src/repro/experiments/__init__.py", "run_experiment") in reached
    assert ("src/repro/experiments/__init__.py", "run_all") not in reached
    rows = reachability.summarize(pairs)
    assert rows
    for _file, total, unreached in rows:
        assert 0 <= unreached <= total


def test_profile_hotspots_package_rows_sum_to_total(tmp_path, capsys,
                                                    load_script):
    profile = load_script("profile_hotspots")
    dump = tmp_path / "mq_ablation.prof"
    assert profile.main(["--experiment", "mq_ablation", "--top", "1",
                         "--dump", str(dump)]) == 0
    stats = pstats.Stats(str(dump))
    total = sum(row[2] for row in stats.stats.values())
    rows = profile.package_rows(stats, os.path.dirname(repro.__file__))
    assert math.isclose(sum(row["tottime"] for row in rows), total,
                        rel_tol=1e-9)
    packages = [row["package"] for row in rows]
    assert len(packages) == len(set(packages))
    assert {"repro.sim", "repro.virtio", "other"} <= set(packages)
    assert "repro.virtio" in capsys.readouterr().out
