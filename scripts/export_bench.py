#!/usr/bin/env python3
"""Run the experiment benchmark suite and write ``BENCH_<n>.json``.

For every experiment (or the subset named on the command line) this
records wall-clock time and the DES kernel's event counters
(:func:`repro.sim.global_event_totals`), then writes one auto-numbered
JSON file in the repository root so successive runs can be diffed:

    python scripts/export_bench.py                # all experiments
    python scripts/export_bench.py fig11 fig9     # just these
    python scripts/export_bench.py --jobs 8       # process-pool fan-out
    python scripts/export_bench.py --out my.json  # explicit output path
    python scripts/export_bench.py --warm-start   # cold-vs-warm columns

``--jobs N`` fans the suite over a persistent worker pool
(:mod:`repro.parallel`); experiments that declare the shard protocol
(``shard_plan``/``run_shard``/``merge_shards``, e.g. ``chaos_campaign``)
additionally split into one job per shard spec so no single experiment
serializes the whole run. Results are merged by job key, never
completion order, so the report is identical to a serial run outside
the wall-time fields (``scripts/diff_bench.py`` checks exactly that).

Output shape::

    {
      "git_commit": "<rev-parse HEAD>",
      "timestamp": "<ISO-8601 UTC>",
      "jobs": 8,
      "seed": 0,
      "quick": true,
      "experiments": {
        "fig11": {"wall_s": 0.41, "events": {"events_popped": ..., ...}},
        ...
      },
      "total_wall_s": ...,     # sum of per-job wall times
      "elapsed_wall_s": ...    # end-to-end, what --jobs improves
    }

Each experiment entry also carries ``queue_depth`` (max and mean event
queue length over the run, derived from the kernel's ``queue_len_max``
and ``queue_len_sum`` counters).

``--warm-start`` switches the suite to the snapshot/restore benchmark:
every mode-capable experiment (those whose ``run()`` accepts a
``mode=`` testbed fidelity) runs twice — once cold (``mode="booted"``,
every bm-guest boots through the virtio-blk path) and once warm
(``mode="warm"``, the booted testbed is restored from a kernel
snapshot). The snapshots are primed once, unmeasured, and shipped with
the warm jobs so pool workers restore instead of booting. The report
then has ``cold``/``warm`` columns per experiment plus ``speedup``,
``events_saved``, and a ``rows_identical`` bit asserting the warm rows
are byte-identical to the cold ones::

    {
      ...,
      "mode": "warm-start",
      "experiments": {
        "fig9": {"cold": {...}, "warm": {...}, "speedup": 1.8,
                 "events_saved": 23968, "rows_identical": true},
        ...
      },
      "cold_total_wall_s": ..., "warm_total_wall_s": ..., "speedup": ...
    }

Auto-numbering is concurrency-safe: the slot is claimed with
``O_CREAT | O_EXCL`` (two racing runs can never pick the same number)
and the content lands via write-to-temp + atomic rename, so a reader
never observes a partially written BENCH file.
"""

import argparse
import datetime
import inspect
import json
import os
import pathlib
import subprocess
import sys
import time
from typing import Dict, List

from repro.config.profile import HardwareProfile, spec_to_dict
from repro.experiments import ALL_EXPERIMENTS, run_experiment
from repro.parallel import Job, JobResult, run_suite

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _header(jobs: int, seed: int, quick: bool) -> dict:
    """The report header every mode starts with.

    ``queue_config`` and ``topology`` record the default profile's
    multi-queue shape and fabric topology, so ``diff_bench`` refuses to
    compare reports produced under different datapath configurations
    (an enabled Clos fabric reroutes every round trip) instead of
    silently diffing their rows.
    """
    profile = HardwareProfile.paper()
    return {
        "git_commit": _git_commit(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "jobs": jobs,
        "seed": seed,
        "quick": quick,
        "queue_config": spec_to_dict(profile.queues),
        "topology": spec_to_dict(profile.topology),
    }


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(REPO_ROOT),
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _claim_bench_path(directory: pathlib.Path) -> pathlib.Path:
    """Reserve the next free ``BENCH_<n>.json`` slot race-free.

    ``O_CREAT | O_EXCL`` makes the claim atomic: of two runs racing for
    ``BENCH_3.json``, exactly one wins and the other moves on to
    ``BENCH_4.json`` — unlike the old exists()-then-write scan, which
    let both write the same file.
    """
    n = 0
    while True:
        path = directory / f"BENCH_{n}.json"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            n += 1
            continue
        os.close(fd)
        return path


def _atomic_write(path: pathlib.Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def queue_depth(events: dict) -> dict:
    """Derived queue-depth columns for one experiment's event counters.

    ``mean`` is the average queue length observed at pop time
    (``queue_len_sum`` accumulates the pre-pop depth on every pop).
    """
    pops = events.get("events_popped", 0)
    return {
        "max": events.get("queue_len_max", 0),
        "mean": round(events.get("queue_len_sum", 0) / pops, 3) if pops else 0.0,
    }


def mode_capable(names=None):
    """Experiment ids whose ``run()`` accepts a testbed ``mode=``."""
    selected = names if names else list(ALL_EXPERIMENTS)
    return [name for name in selected
            if "mode" in inspect.signature(ALL_EXPERIMENTS[name]).parameters]


def experiment_job(name: str, seed: int = 0, quick: bool = True,
                   mode=None, warm_snapshots=None) -> Job:
    """One whole experiment as a job."""
    key = f"experiment:{name}:seed{seed}"
    if mode is not None:
        key = f"{key}:{mode}"
    return Job(key, run_experiment,
               (name, seed, quick, None, mode, warm_snapshots))


def build_plan(names=None, seed: int = 0,
               quick: bool = True) -> Dict[str, List[Job]]:
    """The suite as ``{experiment: [Job]}``.

    An experiment whose module declares the shard protocol fans out to
    one ``run_shard`` job per ``shard_plan`` spec; every other
    experiment is one :func:`experiment_job`.
    """
    selected = list(ALL_EXPERIMENTS)
    if names:
        unknown = [n for n in names if n not in ALL_EXPERIMENTS]
        if unknown:
            known = ", ".join(sorted(ALL_EXPERIMENTS))
            raise SystemExit(f"unknown experiment(s) {unknown}; known: {known}")
        selected = list(names)

    plan = {}
    for exp_id in selected:
        module = inspect.getmodule(ALL_EXPERIMENTS[exp_id])
        if hasattr(module, "shard_plan"):
            specs = module.shard_plan(seed=seed, quick=quick)
            plan[exp_id] = [Job(f"shard:{exp_id}:seed{seed}:{k}",
                                module.run_shard, (spec,))
                            for k, spec in enumerate(specs)]
        else:
            plan[exp_id] = [experiment_job(exp_id, seed=seed, quick=quick)]
    return plan


def merge_bench(plan: Dict[str, List[Job]], results: Dict[str, JobResult],
                header: dict):
    """Fold per-job results into the BENCH schema, in plan order.

    Events and wall times fold per experiment — counters sum, but
    ``queue_len_max`` is a high-water mark and aggregates by max,
    exactly like :func:`repro.sim.global_event_totals` folds multiple
    simulators. Shard payloads (in plan order) go back to the
    ``merge_shards`` of the module whose ``run_shard`` produced them,
    which rebuilds the one ``ExperimentResult`` the unsharded ``run()``
    returns; it receives ``header["seed"]`` and ``header["quick"]``.

    Returns ``(report, experiment_results)``.
    """
    report = dict(header)
    report["experiments"] = {}
    experiment_results = {}
    total = 0.0
    for name, jobs in plan.items():
        events: Dict[str, int] = {}
        wall = 0.0
        for job in jobs:
            result = results[job.key]
            wall += result.wall_s
            for counter, value in result.events.items():
                if counter == "queue_len_max":
                    events[counter] = max(events.get(counter, 0), value)
                else:
                    events[counter] = events.get(counter, 0) + value
        payloads = [results[job.key].payload for job in jobs]
        if jobs[0].fn is run_experiment:
            experiment_results[name] = payloads[0]
        else:
            module = sys.modules[jobs[0].fn.__module__]
            experiment_results[name] = module.merge_shards(
                seed=header["seed"], quick=header["quick"], payloads=payloads)
        total += wall
        report["experiments"][name] = {
            "wall_s": round(wall, 6),
            "events": events,
        }
    report["total_wall_s"] = round(total, 6)
    return report, experiment_results


def run(names=None, seed: int = 0, quick: bool = True, outdir: str = ".",
        jobs: int = 1, out=None) -> pathlib.Path:
    start = time.perf_counter()
    plan = build_plan(names, seed=seed, quick=quick)
    results = run_suite([job for group in plan.values() for job in group],
                        n_jobs=jobs)

    report, experiment_results = merge_bench(
        plan, results, _header(jobs, seed, quick))
    report["elapsed_wall_s"] = round(time.perf_counter() - start, 6)

    for exp_id, entry in report["experiments"].items():
        # Analytic experiments never touch the kernel: every counter is
        # zero and a queue-depth block derived from zeros is noise. Omit
        # both blocks entirely (bench_diff treats absent-vs-all-zero as
        # equal, so old reports still compare clean).
        if not any(entry["events"].values()):
            del entry["events"]
            print(f"{exp_id}: {entry['wall_s']:.3f}s (no kernel events)")
        else:
            entry["queue_depth"] = queue_depth(entry["events"])
            print(f"{exp_id}: {entry['wall_s']:.3f}s "
                  f"({entry['events']['events_popped']} events, queue depth "
                  f"max {entry['queue_depth']['max']} "
                  f"mean {entry['queue_depth']['mean']})")
        columns = _scenario_columns(exp_id, experiment_results[exp_id])
        if columns is not None:
            entry["scenario"] = columns
        result = experiment_results[exp_id]
        if result is not None and not result.passed:
            failed = "; ".join(c.name for c in result.failed_checks())
            print(f"  WARNING {exp_id} checks failed: {failed}",
                  file=sys.stderr)

    path = _resolve_out_path(out, outdir)
    _atomic_write(path, json.dumps(report, indent=2) + "\n")
    print(f"wrote {path} ({len(report['experiments'])} experiments, "
          f"{report['total_wall_s']:.3f}s total, "
          f"{report['elapsed_wall_s']:.3f}s elapsed, jobs={jobs})")
    return path


def _scenario_columns(exp_id: str, result):
    """Experiment-specific bench columns via the ``bench_columns`` hook.

    An experiment module may expose ``bench_columns(result) -> dict``
    returning *deterministic* scenario metrics (simulated quantities
    only — no wall time), which land under the experiment entry's
    ``scenario`` key. region_resilience uses this to put remediation
    latency and control-plane overhead into the perf trajectory;
    ``diff_bench`` compares the values like any other non-volatile key.
    """
    if result is None:
        return None
    runner = ALL_EXPERIMENTS.get(exp_id)
    if runner is None:
        return None
    module = inspect.getmodule(runner)
    hook = getattr(module, "bench_columns", None)
    if hook is None:
        return None
    return hook(result)


def _resolve_out_path(out, outdir) -> pathlib.Path:
    if out is not None:
        path = pathlib.Path(out)
        if path.parent:
            path.parent.mkdir(parents=True, exist_ok=True)
        return path
    directory = pathlib.Path(outdir)
    directory.mkdir(parents=True, exist_ok=True)
    return _claim_bench_path(directory)


def run_warm_start(names=None, seed: int = 0, quick: bool = True,
                   outdir: str = ".", jobs: int = 1,
                   out=None) -> pathlib.Path:
    """Cold (``mode="booted"``) vs warm (``mode="warm"``) benchmark.

    The warm cache is primed once, unmeasured, by running each selected
    experiment in warm mode in-process; the resulting snapshots ship on
    the warm jobs so pool workers restore instead of booting. Cold and
    warm jobs then run through the same pool, and the report pairs them
    per experiment with the derived ``speedup`` / ``events_saved`` /
    ``rows_identical`` columns the CI gate asserts on.
    """
    from repro.experiments.common import clear_warm_cache, export_warm_cache
    from repro.sim import reset_global_stats

    names = mode_capable(names)
    if not names:
        raise SystemExit("no selected experiment accepts a testbed mode; "
                         f"mode-capable: {', '.join(mode_capable()) or 'none'}")

    print(f"priming warm snapshots for {', '.join(names)} (unmeasured)...")
    clear_warm_cache()
    for name in names:
        ALL_EXPERIMENTS[name](seed=seed, quick=quick, mode="warm")
    snapshots = export_warm_cache()
    reset_global_stats()
    print(f"  {len(snapshots)} testbed snapshot(s) cached")

    start = time.perf_counter()
    cold_jobs = [experiment_job(name, seed=seed, quick=quick, mode="booted")
                 for name in names]
    warm_jobs = [experiment_job(name, seed=seed, quick=quick, mode="warm",
                                warm_snapshots=snapshots)
                 for name in names]
    results = run_suite(cold_jobs + warm_jobs, n_jobs=jobs)

    report = {**_header(jobs, seed, quick), "mode": "warm-start",
              "experiments": {}}
    cold_total = warm_total = 0.0
    for name, cold_job, warm_job in zip(names, cold_jobs, warm_jobs):
        cold = results[cold_job.key]
        warm = results[warm_job.key]
        cold_total += cold.wall_s
        warm_total += warm.wall_s
        rows_identical = cold.payload.rows == warm.payload.rows
        entry = {
            "cold": {"wall_s": round(cold.wall_s, 6), "events": cold.events,
                     "queue_depth": queue_depth(cold.events)},
            "warm": {"wall_s": round(warm.wall_s, 6), "events": warm.events,
                     "queue_depth": queue_depth(warm.events)},
            "speedup": round(cold.wall_s / warm.wall_s, 3),
            "events_saved": (cold.events["events_popped"]
                             - warm.events["events_popped"]),
            "rows_identical": rows_identical,
        }
        report["experiments"][name] = entry
        print(f"{name}: cold {cold.wall_s:.3f}s "
              f"({cold.events['events_popped']} events) vs warm "
              f"{warm.wall_s:.3f}s ({warm.events['events_popped']} events) "
              f"-> {entry['speedup']:.2f}x, "
              f"{entry['events_saved']} events saved")
        if not rows_identical:
            print(f"  WARNING {name}: warm rows differ "
                  f"from cold rows", file=sys.stderr)
        for payload in (cold.payload, warm.payload):
            if payload is not None and not payload.passed:
                failed = "; ".join(c.name for c in payload.failed_checks())
                print(f"  WARNING {name} checks failed: "
                      f"{failed}", file=sys.stderr)

    report["cold_total_wall_s"] = round(cold_total, 6)
    report["warm_total_wall_s"] = round(warm_total, 6)
    report["speedup"] = round(cold_total / warm_total, 3)
    report["elapsed_wall_s"] = round(time.perf_counter() - start, 6)

    path = _resolve_out_path(out, outdir)
    _atomic_write(path, json.dumps(report, indent=2) + "\n")
    print(f"wrote {path} (cold {cold_total:.3f}s vs warm {warm_total:.3f}s, "
          f"{report['speedup']:.2f}x)")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: the whole suite)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = in-process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="full-scale runs (quick=False)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of "
                             "auto-numbering BENCH_<n>.json")
    parser.add_argument("--outdir", default=".",
                        help="directory for auto-numbered BENCH files")
    parser.add_argument("--warm-start", action="store_true",
                        help="benchmark cold (booted) vs warm (snapshot "
                             "restore) testbeds for mode-capable experiments")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    runner = run_warm_start if args.warm_start else run
    runner(args.experiments or None, seed=args.seed, quick=not args.full,
           outdir=args.outdir, jobs=args.jobs, out=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
