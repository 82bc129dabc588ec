"""Command-line interface: ``python -m repro <command>``.

Commands:
    list                      show every reproducible table/figure
    run <ids...> [--full]     run experiments and print their tables
    all [--full]              run the whole suite, summarize pass/fail
    catalog                   print the instance catalog (Table 3)
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import ALL_EXPERIMENTS, run_experiment


def _cmd_list(_args) -> int:
    for exp_id, runner in ALL_EXPERIMENTS.items():
        module = sys.modules[runner.__module__]
        print(f"{exp_id:14s} {module.TITLE}")
    return 0


def _run_many(exp_ids, quick: bool, seed: int) -> int:
    failures = 0
    start = time.time()
    for exp_id in exp_ids:
        result = run_experiment(exp_id, seed, quick)
        print(result.format_table())
        print()
        failures += not result.passed
    status = "all passed" if not failures else f"{failures} FAILED"
    print(f"{len(exp_ids)} experiment(s), {status} ({time.time() - start:.1f}s)")
    return 1 if failures else 0


def _cmd_run(args) -> int:
    unknown = [e for e in args.experiments if e not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    return _run_many(args.experiments, quick=not args.full, seed=args.seed)


def _cmd_all(args) -> int:
    return _run_many(list(ALL_EXPERIMENTS), quick=not args.full, seed=args.seed)


def _cmd_catalog(_args) -> int:
    from repro.cloud import table3_rows

    for row in table3_rows():
        print(f"{row['instance']:18s} {row['cpu']:22s} "
              f"{row['hyperthreads']:3d} HT  {row['memory_gib']:4d} GiB  "
              f"{row['boards_per_server']:2d} boards/server")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BM-Hive (ASPLOS 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible tables/figures").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run selected experiments")
    run.add_argument("experiments", nargs="+")
    run.add_argument("--full", action="store_true",
                     help="paper-scale populations instead of quick mode")
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(func=_cmd_run)

    everything = sub.add_parser("all", help="run the full suite")
    everything.add_argument("--full", action="store_true")
    everything.add_argument("--seed", type=int, default=0)
    everything.set_defaults(func=_cmd_all)

    sub.add_parser("catalog", help="print the instance catalog").set_defaults(
        func=_cmd_catalog
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
