"""Deterministic perf-regression gate over kernel event counts.

Wall-clock is too noisy to gate in CI; the DES kernel's counters are
exact. For a fixed seed, ``fig9`` and ``fig11`` pop a deterministic
number of events, and ``fast_path_hits`` records how many went through
the single-waiter fast lane. A change that silently de-optimizes the
hot path (events leaking off the fast lane, poll loops scheduling extra
wakeups) moves these integers and fails here long before anyone
notices a slow benchmark.

``mq_ablation`` is pinned in both idle-skip modes: its poll loops park
on doorbells, so the busy-polling count (selected through
``set_idle_skip_default``) pins what the doorbell saves. fig9 and fig11
park nothing, so they are pinned under the default only.

Intentional changes are a one-command refresh away::

    PYTHONPATH=src python scripts/refresh_perf_golden.py
"""

import json
import pathlib

import pytest

from repro.experiments import run_experiment
from repro.parallel import Job, execute
from repro.sim import set_idle_skip_default

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_event_counts.json"
REFRESH_HINT = ("counts moved — if intentional, refresh with "
                "`PYTHONPATH=src python scripts/refresh_perf_golden.py`")
CASES = [("fig9", True), ("fig11", True),
         ("mq_ablation", True), ("mq_ablation", False)]


def mode_name(idle_skip):
    return "idle_skip_on" if idle_skip else "idle_skip_off"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["experiments"]


class TestEventCountGolden:
    @pytest.mark.parametrize(
        "experiment,idle_skip", CASES,
        ids=[f"{mode_name(skip)}-{exp}" for exp, skip in CASES])
    def test_counts_match_golden(self, golden, experiment, idle_skip):
        old = set_idle_skip_default(idle_skip)
        try:
            result = execute(Job(experiment, run_experiment,
                                 (experiment, 0, True)))
        finally:
            set_idle_skip_default(old)
        assert result.payload.passed
        mode = mode_name(idle_skip)
        expected = golden[experiment][mode]
        observed = {counter: result.events[counter] for counter in expected}
        assert observed == expected, f"{experiment} {mode}: {REFRESH_HINT}"

    def test_golden_counts_are_nontrivial(self, golden):
        # Guard against an empty/placeholder golden file silently
        # turning the gate into a no-op.
        for experiment, modes in golden.items():
            for mode, counters in modes.items():
                assert counters["events_popped"] > 1_000, (experiment, mode)
                assert 0 < counters["fast_path_hits"] <= (
                    counters["events_popped"]), (experiment, mode)

    def test_busy_poll_golden_differs_from_idle_skip(self, golden):
        # A mode pair that pops the same count checks nothing about the
        # doorbell; every pinned busy-poll count must exceed its twin.
        for experiment, modes in golden.items():
            if "idle_skip_off" in modes:
                assert (modes["idle_skip_off"]["events_popped"]
                        > modes["idle_skip_on"]["events_popped"]), experiment
