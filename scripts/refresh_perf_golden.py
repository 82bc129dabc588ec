#!/usr/bin/env python3
"""Regenerate the golden kernel event counts for the perf gate.

Wall-clock time is too noisy to gate a perf regression in CI, but the
DES kernel's event counters are exact: for a fixed seed, ``fig9`` and
``fig11`` schedule a deterministic number of events, and the share
taken by the single-waiter fast lane (``fast_path_hits``) is the
quantity the fast-lane optimization bought. ``mq_ablation`` is the
golden experiment whose poll loops park on doorbells, so it is recorded
in both idle-skip modes: the busy-polling count pins what the doorbell
saves. ``tests/perf/test_event_golden.py`` pins all of them to the
numbers recorded here.

One command refreshes the golden file after an intentional change:

    PYTHONPATH=src python scripts/refresh_perf_golden.py

Commit the diff alongside the change that moved the counts.
"""

import json
import pathlib

from repro.experiments import run_experiment
from repro.parallel import Job, execute
from repro.sim import set_idle_skip_default

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent.parent
               / "tests" / "perf" / "golden_event_counts.json")
#: Experiment -> idle-skip modes recorded for it.
GOLDEN_MODES = {
    "fig9": (True,),
    "fig11": (True,),
    "mq_ablation": (True, False),
}
GOLDEN_COUNTERS = ("events_popped", "fast_path_hits")


def mode_name(idle_skip: bool) -> str:
    return "idle_skip_on" if idle_skip else "idle_skip_off"


def count_events(experiment: str, idle_skip: bool) -> dict:
    """Golden counters of one seed-0 quick run in the given mode."""
    old = set_idle_skip_default(idle_skip)
    try:
        result = execute(Job(experiment, run_experiment,
                             (experiment, 0, True)))
    finally:
        set_idle_skip_default(old)
    assert result.payload.passed, f"{experiment} failed its checks"
    return {counter: result.events[counter] for counter in GOLDEN_COUNTERS}


def collect() -> dict:
    return {
        experiment: {mode_name(idle_skip): count_events(experiment, idle_skip)
                     for idle_skip in modes}
        for experiment, modes in GOLDEN_MODES.items()
    }


def main() -> int:
    golden = {
        "_comment": ("Deterministic kernel event counts (seed 0, quick). "
                     "Refresh: PYTHONPATH=src python "
                     "scripts/refresh_perf_golden.py"),
        "experiments": collect(),
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    for experiment, modes in golden["experiments"].items():
        for mode, counters in sorted(modes.items()):
            print(f"  {experiment} {mode}: {counters}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
