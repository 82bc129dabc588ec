"""Command line of the repository benchmark.

    python3 perfbench/run.py --workload ring_io --seed 1 --seconds 10 --trace 0

Runs one workload (``ring_io``, ``region_churn`` or ``region_failover``)
from the ``repro`` sources under ``src/`` next to this directory. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it records the host fingerprint, the seed, per-episode simulated
fingerprints and outcome metrics. A traced run also writes a
Chrome/Perfetto trace and the per-layer metrics to ``perfbench/out/``.

The exit code is 0 when the run completed, whether or not a check
failed (``correct`` says that); it is 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ring_io", "region_churn", "region_failover")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    # Import the benchmark as a package from the checkout root, not its
    # modules from this script's directory.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(src), str(ROOT)] + [p for p in sys.path if p != here]
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    result = bench.run(WORKLOADS[args.workload](), seed=args.seed,
                       seconds=args.seconds, trace=bool(args.trace),
                       out_dir=ROOT / "perfbench" / "out", root=ROOT)
    meta = result.pop("meta")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
