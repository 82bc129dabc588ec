#!/usr/bin/env python3
"""Fan one experiment across a seed range; report per-seed + aggregate.

Seed sweeps answer the robustness question the single-seed suite
cannot: does an experiment's verdict (and how much of its output)
depend on the seed? Each seed is an independent simulation, so the
sweep fans out over the :mod:`repro.parallel` worker pool:

    PYTHONPATH=src python scripts/sweep.py fig9 --seeds 16 --jobs 8
    PYTHONPATH=src python scripts/sweep.py chaos_campaign --seeds 4:12
    PYTHONPATH=src python scripts/sweep.py fig11 --seeds 8 --out sweep.json

The report carries one row per seed (pass/fail, failed check names, a
SHA-256 over the result rows, per-column means) plus aggregate
statistics in seed order — merged by job key, so ``--jobs N`` output is
identical to serial outside wall-time fields. Exit code is non-zero if
any seed fails its experiment checks.
"""

import argparse
import json
import pathlib

from repro.experiments import ALL_EXPERIMENTS, seed_summary
from repro.parallel import Job, run_suite


def parse_seed_range(text: str):
    """``"16"`` -> seeds 0..15; ``"4:12"`` -> seeds 4..11."""
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo, hi = 0, int(text)
    if hi <= lo:
        raise ValueError(f"empty seed range {text!r}")
    return range(lo, hi)


def seed_key(seed: int) -> str:
    return f"sweep:seed{seed}"


def sweep(experiment: str, seeds, quick: bool = True, jobs: int = 1,
          profile=None) -> dict:
    results = run_suite(
        [Job(seed_key(seed), seed_summary, (experiment, seed, quick, profile))
         for seed in seeds], n_jobs=jobs)
    report = merge_sweep(seeds, results)
    report_header = {
        "experiment": experiment,
        "quick": quick,
        "profile": profile,
        "seeds": list(seeds),
    }
    return {**report_header, **report}


def merge_sweep(seeds, results) -> dict:
    """Per-seed rows plus aggregate statistics, in seed order.

    ``results`` is keyed by :func:`seed_key`.
    """
    rows = []
    for seed in sorted(seeds):
        result = results[seed_key(seed)]
        row = dict(result.payload)
        row["wall_s"] = round(result.wall_s, 6)
        row["events_popped"] = result.events.get("events_popped", 0)
        rows.append(row)

    digests = [row["rows_sha256"] for row in rows]
    metric_columns = sorted({column
                             for row in rows
                             for column in row["metrics"]})
    aggregate = {
        "n_seeds": len(rows),
        "passed_seeds": sum(row["passed"] for row in rows),
        "all_passed": all(row["passed"] for row in rows),
        "distinct_row_digests": len(set(digests)),
        "metrics": {column: _stats([row["metrics"][column] for row in rows
                                    if column in row["metrics"]])
                    for column in metric_columns},
        "events_popped": _stats([row["events_popped"] for row in rows]),
    }
    return {"per_seed": rows, "aggregate": aggregate}


def _stats(values) -> dict:
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return {
        "mean": mean,
        "min": min(values),
        "max": max(values),
        "stddev": variance ** 0.5,
    }


def _print_report(report: dict) -> None:
    for row in report["per_seed"]:
        status = "ok" if row["passed"] else "FAILED"
        detail = ""
        if row["failed_checks"]:
            detail = f" [{', '.join(row['failed_checks'])}]"
        print(f"seed {row['seed']}: {status} "
              f"({row['checks_passed']}/{row['checks_total']} checks, "
              f"{row['events_popped']} events, {row['wall_s']:.3f}s)"
              f"{detail}")
    aggregate = report["aggregate"]
    print(f"{aggregate['passed_seeds']}/{aggregate['n_seeds']} seeds passed, "
          f"{aggregate['distinct_row_digests']} distinct row digest(s)")
    for column, stats in aggregate["metrics"].items():
        print(f"  {column}: mean {stats['mean']:.6g} "
              f"[{stats['min']:.6g}, {stats['max']:.6g}] "
              f"stddev {stats['stddev']:.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiment", help="experiment id (see `repro list`)")
    parser.add_argument("--seeds", default="8", metavar="N|LO:HI",
                        help="seed count or range (default 8 = seeds 0..7)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = in-process)")
    parser.add_argument("--full", action="store_true",
                        help="full-scale runs (quick=False)")
    parser.add_argument("--profile", default=None,
                        help="named HardwareProfile preset (paper/asic/gen4) "
                             "for experiments that accept one")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the report as JSON")
    args = parser.parse_args(argv)
    if args.experiment not in ALL_EXPERIMENTS:
        known = ", ".join(sorted(ALL_EXPERIMENTS))
        parser.error(f"unknown experiment {args.experiment!r}; known: {known}")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        seeds = parse_seed_range(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))

    report = sweep(args.experiment, seeds, quick=not args.full,
                   jobs=args.jobs, profile=args.profile)
    _print_report(report)
    if args.out is not None:
        path = pathlib.Path(args.out)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0 if report["aggregate"]["all_passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
