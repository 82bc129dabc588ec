#!/usr/bin/env python3
"""Profile one experiment under cProfile and print its hotspots.

The region-scale work (DESIGN.md §14) lives or dies on per-placement
cost, and "which line is hot" questions come up every time a rung gets
slower. This wraps an experiment run in :mod:`cProfile` and prints a
deterministic-ordered table of the top functions:

    PYTHONPATH=src python scripts/profile_hotspots.py \
        --experiment region_scale --top 25

Rows are sorted by (tottime descending, then name ascending) so two
profiles of the same build diff cleanly line-by-line even when nearby
functions have near-identical times. ``--full`` profiles the full
(non-quick) configuration — for region_scale that is the million-guest
sweep, a ~10 s run and the one worth profiling.

After the hotspots comes host time per layer: tottime summed over
every function defined under ``repro.<package>``, with everything else
(the standard library, builtins, the profiler itself) in one ``other``
row, so the rows add up to the profile's total.
"""

import argparse
import cProfile
import os
import pstats
import sys


def hotspot_rows(stats: pstats.Stats, top: int):
    """Top functions by tottime, stable-ordered for diffability."""
    rows = []
    for func, (cc, nc, tottime, cumtime, _callers) in stats.stats.items():
        filename, lineno, name = func
        rows.append({
            "where": f"{filename}:{lineno}({name})",
            "ncalls": nc,
            "tottime": tottime,
            "cumtime": cumtime,
        })
    rows.sort(key=lambda row: (-row["tottime"], row["where"]))
    return rows[:top]


def package_rows(stats: pstats.Stats, root: str):
    """tottime summed per ``repro.<package>``, largest first.

    ``root`` is the ``repro`` package directory; a top-level module
    counts as its own package, and code outside ``root`` as ``other``.
    """
    prefix = os.path.join(root, "")
    totals = {}
    for (filename, _lineno, _name), row in stats.stats.items():
        package = "other"
        if filename.startswith(prefix):
            head = filename[len(prefix):].split(os.sep)[0]
            package = "repro." + head.removesuffix(".py")
        totals[package] = totals.get(package, 0.0) + row[2]
    rows = [{"package": package, "tottime": tottime}
            for package, tottime in totals.items()]
    rows.sort(key=lambda row: (-row["tottime"], row["package"]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", default="region_scale",
                        help="experiment id to profile (default: "
                             "region_scale)")
    parser.add_argument("--top", type=int, default=25, metavar="N",
                        help="number of hotspot rows to print (default: 25)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="profile the full (non-quick) configuration")
    parser.add_argument("--dump", metavar="PATH", default=None,
                        help="also write the raw pstats dump to PATH for "
                             "snakeviz/pstats browsing")
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be >= 1")

    import repro
    from repro.experiments import ALL_EXPERIMENTS

    runner = ALL_EXPERIMENTS.get(args.experiment)
    if runner is None:
        parser.error(f"unknown experiment {args.experiment!r}; known: "
                     + ", ".join(sorted(ALL_EXPERIMENTS)))

    profiler = cProfile.Profile()
    profiler.enable()
    result = runner(seed=args.seed, quick=not args.full)
    profiler.disable()

    stats = pstats.Stats(profiler)
    if args.dump:
        stats.dump_stats(args.dump)
    total = sum(row[2] for row in stats.stats.values())
    mode = "full" if args.full else "quick"
    print(f"{args.experiment} ({mode}, seed {args.seed}): "
          f"{total:.3f}s tottime over {len(stats.stats)} functions; "
          f"checks {'passed' if result.passed else 'FAILED'}")
    print(f"{'tottime':>9} {'cumtime':>9} {'ncalls':>10}  where")
    for row in hotspot_rows(stats, args.top):
        print(f"{row['tottime']:>9.4f} {row['cumtime']:>9.4f} "
              f"{row['ncalls']:>10}  {row['where']}")
    print(f"\n{'tottime':>9} {'share':>6}  package")
    for row in package_rows(stats, os.path.dirname(repro.__file__)):
        print(f"{row['tottime']:>9.4f} {row['tottime'] / total:>6.1%}  "
              f"{row['package']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
