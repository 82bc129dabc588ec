"""Reproduction of every table and figure in the paper's evaluation.

Each module exposes ``run(seed=0, quick=True) -> ExperimentResult``.
``ALL_EXPERIMENTS`` maps experiment ids to those runners;
:func:`run_all` executes the whole suite. :func:`run_experiment` and
:func:`seed_summary` run one experiment by name — module-level, so a
process pool can ship them as job functions.
"""

import hashlib
import inspect
import json
from typing import Callable, Dict, Optional

from repro.experiments import (
    ablations,
    chaos_campaign,
    cost,
    cross_rack,
    fig1,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fault_isolation,
    future_work,
    incast,
    iobond_micro,
    mq_ablation,
    nested,
    region_resilience,
    region_scale,
    security_exp,
    table1,
    table2,
    table3,
)
from repro.experiments.base import Check, ExperimentResult, check, check_between
from repro.experiments.common import Testbed, TestbedBuilder, make_testbed

ALL_EXPERIMENTS: Dict[str, Callable] = {
    module.EXPERIMENT_ID: module.run
    for module in (
        table1, table2, table3,
        fig1, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15, fig16,
        cost, nested, iobond_micro, mq_ablation, security_exp, ablations,
        future_work, fault_isolation, chaos_campaign, cross_rack, incast,
        region_resilience, region_scale,
    )
}


def run_all(seed: int = 0, quick: bool = True) -> Dict[str, ExperimentResult]:
    """Run every experiment; returns results keyed by experiment id."""
    return {exp_id: runner(seed=seed, quick=quick)
            for exp_id, runner in ALL_EXPERIMENTS.items()}


def resolve_profile(name: Optional[str]):
    """Resolve a named :class:`~repro.config.HardwareProfile` preset."""
    if name is None:
        return None
    from repro.config import HardwareProfile

    presets = {"paper": HardwareProfile.paper,
               "asic": HardwareProfile.asic,
               "gen4": HardwareProfile.gen4}
    if name not in presets:
        raise ValueError(f"unknown profile {name!r}; known: "
                         f"{', '.join(sorted(presets))}")
    return presets[name]()


def run_experiment(name: str, seed: int, quick: bool,
                   profile: Optional[str] = None, mode: Optional[str] = None,
                   warm_snapshots: Optional[tuple] = None) -> ExperimentResult:
    """Run ``ALL_EXPERIMENTS[name]`` with the knobs the front-ends expose.

    ``profile`` names a :func:`resolve_profile` preset and ``mode`` the
    testbed start-up fidelity (``fast``/``booted``/``warm``); either is
    rejected for an experiment whose runner does not accept it.
    ``warm_snapshots`` are pre-computed
    :class:`~repro.experiments.common.TestbedSnapshot` objects loaded
    into the process-wide warm cache first (a ``setdefault``, so a pool
    worker pays each boot at most once) — every warm start inside the
    run then restores instead of booting.
    """
    try:
        runner = ALL_EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(ALL_EXPERIMENTS))
        raise ValueError(f"unknown experiment {name!r}; known: {known}")
    if warm_snapshots:
        from repro.experiments.common import load_warm_cache

        load_warm_cache(warm_snapshots)
    kwargs = {"seed": seed, "quick": quick}
    parameters = inspect.signature(runner).parameters
    if profile is not None:
        if "profile" not in parameters:
            raise ValueError(
                f"experiment {name!r} does not accept a profile")
        kwargs["profile"] = resolve_profile(profile)
    if mode is not None:
        if "mode" not in parameters:
            raise ValueError(
                f"experiment {name!r} does not accept a testbed mode")
        kwargs["mode"] = mode
    return runner(**kwargs)


def seed_summary(name: str, seed: int, quick: bool = True,
                 profile: Optional[str] = None) -> Dict:
    """One seed of an experiment, summarized as a seed-sweep row.

    A compact, JSON-able row: pass/fail, which checks failed, a SHA-256
    over the result rows (so cross-seed stability is one string
    comparison), and the mean of every numeric row column for
    aggregate statistics.
    """
    result = run_experiment(name, seed, quick, profile)
    digest = hashlib.sha256(
        json.dumps(result.rows, sort_keys=True, default=repr).encode()
    ).hexdigest()
    metrics: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for row in result.rows:
        for column, value in row.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metrics[column] = metrics.get(column, 0.0) + float(value)
            counts[column] = counts.get(column, 0) + 1
    return {
        "seed": seed,
        "experiment": result.experiment_id,
        "passed": result.passed,
        "checks_passed": sum(c.passed for c in result.checks),
        "checks_total": len(result.checks),
        "failed_checks": [c.name for c in result.failed_checks()],
        "row_count": len(result.rows),
        "rows_sha256": digest,
        "metrics": {column: metrics[column] / counts[column]
                    for column in sorted(metrics)},
    }


__all__ = [
    "ALL_EXPERIMENTS",
    "run_all",
    "run_experiment",
    "seed_summary",
    "resolve_profile",
    "ExperimentResult",
    "Check",
    "check",
    "check_between",
    "Testbed",
    "TestbedBuilder",
    "make_testbed",
]
