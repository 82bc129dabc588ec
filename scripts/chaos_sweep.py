#!/usr/bin/env python3
"""Run seeded chaos campaigns; shrink and dump any failure found.

Entry point for the chaos pipeline (DESIGN.md §8). For each campaign
seed this runs the full chaos scenario plus its fault-free baseline
under the invariant-monitor suite and the differential oracle:

    PYTHONPATH=src python scripts/chaos_sweep.py --seeds 20
    PYTHONPATH=src python scripts/chaos_sweep.py --seeds 20 --jobs 8
    PYTHONPATH=src python scripts/chaos_sweep.py --seeds 5 --out report.json
    PYTHONPATH=src python scripts/chaos_sweep.py --seeds 5 --inject-regression

The report is deterministic byte for byte: it contains only simulated
quantities, so two runs with the same seed list produce identical
files (CI diffs them to prove it). On any failing campaign the plan is
delta-debugged down to a minimal reproducer and written as
``chaos_minimized_seed<k>.json`` — a :class:`FaultPlan` JSON that
round-trips through ``HardwareProfile.faults`` — and the sweep exits
non-zero.

``--inject-regression`` installs a deliberately broken monitor
(:class:`~repro.chaos.monitors.RegressionProbeMonitor`) to prove the
failure path end to end: the sweep must *fail*, and must emit a
minimized single-fault plan. In this mode the exit code is inverted —
zero iff the regression was caught and shrunk.
"""

import argparse
import json
import pathlib
import sys

from repro.chaos import sweep_campaign
from repro.parallel import Job, run_suite


def campaign_key(seed: int) -> str:
    return f"chaos:seed{seed}"


def merge_chaos(seeds, results, header: dict):
    """Fold campaign payloads into the sweep report, in seed order.

    ``results`` is keyed by :func:`campaign_key`. Returns ``(report,
    minimized_plans_by_seed, failures)``; the report carries exactly
    the fields a serial sweep writes, so serial and parallel reports
    stay byte-identical.
    """
    report = dict(header)
    report["campaigns"] = {}
    minimized = {}
    failures = 0
    for seed in sorted(seeds):
        payload = results[campaign_key(seed)].payload
        report["campaigns"][str(seed)] = payload["entry"]
        if payload["failed"]:
            failures += 1
            if payload["minimized_plan"] is not None:
                minimized[seed] = payload["minimized_plan"]
    report["failures"] = failures
    return report, minimized, failures


def sweep(n_seeds: int, outdir: pathlib.Path, out_name: str,
          inject_regression: bool = False, shrink_runs: int = 120,
          jobs: int = 1) -> int:
    """Returns the number of failing campaigns (after writing reports).

    ``jobs > 1`` fans the campaigns over a worker pool; each campaign
    (and, when it fails, its shrink loop) runs whole inside one worker,
    and the report is merged in seed order — byte-identical to a serial
    sweep of the same seeds.
    """
    seeds = range(n_seeds)
    results = run_suite(
        [Job(campaign_key(seed), sweep_campaign,
             (seed, inject_regression, shrink_runs)) for seed in seeds],
        n_jobs=jobs)

    header = {
        "inject_regression": inject_regression,
        "seeds": list(seeds),
    }
    report, minimized, failures = merge_chaos(seeds, results, header)

    for seed in range(n_seeds):
        entry = report["campaigns"][str(seed)]
        if entry["failed"]:
            plan = minimized.get(seed)
            plan_path = outdir / f"chaos_minimized_seed{seed}.json"
            if plan is not None:
                plan_path.write_text(plan["json"])
                print(f"seed {seed}: FAILED — {plan['summary']}; "
                      f"minimal plan -> {plan_path}")
                print(plan["describe"])
            else:  # pragma: no cover - shrink always runs on failure
                print(f"seed {seed}: FAILED (no minimized plan)")
        else:
            print(f"seed {seed}: ok "
                  f"({entry['n_faults']} faults, "
                  f"{entry['monitor_samples']} samples, 0 violations)")

    out_path = outdir / out_name
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path} ({n_seeds} campaigns, {failures} failing)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, metavar="N",
                        help="run campaign seeds 0..N-1 (default 20)")
    parser.add_argument("--out", default="chaos_report.json",
                        help="report file name (default chaos_report.json)")
    parser.add_argument("--outdir", default=".",
                        help="directory for report + minimized plans")
    parser.add_argument("--inject-regression", action="store_true",
                        help="install a broken monitor; succeed iff the "
                             "sweep fails and shrinks it to one fault")
    parser.add_argument("--shrink-runs", type=int, default=120,
                        help="predicate-evaluation budget for the shrinker")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = in-process); "
                             "the report is byte-identical either way")
    args = parser.parse_args(argv)
    if args.seeds <= 0:
        parser.error("--seeds must be positive")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failures = sweep(args.seeds, outdir, args.out,
                     inject_regression=args.inject_regression,
                     shrink_runs=args.shrink_runs, jobs=args.jobs)

    if args.inject_regression:
        # The broken monitor must trip at least one campaign AND every
        # failing campaign must have produced a minimized plan file.
        plans = sorted(outdir.glob("chaos_minimized_seed*.json"))
        if failures == 0:
            print("regression probe never tripped — shrink pipeline "
                  "NOT exercised", file=sys.stderr)
            return 1
        if len(plans) < failures:
            print(f"{failures} failures but only {len(plans)} minimized "
                  f"plan file(s)", file=sys.stderr)
            return 1
        print(f"regression caught and shrunk ({len(plans)} minimized "
              f"plan file(s))")
        return 0
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
