"""Deterministic merging of parallel job results.

Everything here is keyed and ordered by *job key* (equivalently, by
submission order), never by completion order: the merged artifacts a
parallel run produces must be byte-identical to what the serial
front-ends write, outside explicitly volatile fields (wall-clock,
timestamps, worker counts). :data:`VOLATILE_KEYS` names those fields
once, and :func:`strip_volatile` / :func:`bench_diff` implement the
"identical modulo wall time" comparison the CI gate and the tests use.
"""

from __future__ import annotations

import copy
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from repro.parallel.jobs import (ChaosCampaignJob, ExperimentShardJob,
                                 JobResult, SeedSweepJob)

__all__ = [
    "VOLATILE_KEYS",
    "WALL_KEYS",
    "strip_volatile",
    "bench_diff",
    "merge_bench",
    "merge_chaos",
    "merge_sweep",
    "merge_experiment_shards",
]

# Report fields that legitimately differ between two otherwise
# equivalent runs: wall-clock measurements and run-metadata stamps.
# "throughput" is the region-scale benchmark's wall-derived subtree
# (placements/sec, peak RSS, ...) — volatile as a whole.
VOLATILE_KEYS = frozenset({
    "wall_s",
    "total_wall_s",
    "elapsed_wall_s",
    "timestamp",
    "git_commit",
    "jobs",
    "attempts",
    "throughput",
})

# The wall-clock subset of VOLATILE_KEYS: with a tolerance these are
# *compared* (within a relative bound) instead of ignored.
WALL_KEYS = frozenset({"wall_s", "total_wall_s", "elapsed_wall_s"})


def strip_volatile(report: dict) -> dict:
    """Deep-copy ``report`` with every volatile field removed."""

    def scrub(node):
        if isinstance(node, dict):
            return {key: scrub(value) for key, value in node.items()
                    if key not in VOLATILE_KEYS}
        if isinstance(node, list):
            return [scrub(item) for item in node]
        return node

    return scrub(copy.deepcopy(report))


def _zero_like(value) -> bool:
    """True for values equivalent to "no traffic recorded".

    Older BENCH files wrote all-zero ``events``/``queue_depth`` blocks
    for analytic experiments that never touch the kernel; newer ones
    omit the blocks entirely. A key present on one side only is not a
    difference when its value carries no information: numeric zero, or
    a container of (recursively) zero-like values. Booleans and strings
    are never zero-like — ``False``/``""`` are statements, not absence.
    """
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return value == 0
    if isinstance(value, dict):
        return all(_zero_like(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_zero_like(v) for v in value)
    return False


def bench_diff(a: dict, b: dict,
               wall_tolerance: Optional[float] = None,
               ignore_keys: Iterable[str] = (),
               wall_floor_s: float = 0.0) -> List[str]:
    """Differences between two BENCH reports modulo volatile fields.

    Returns human-readable difference lines; empty means equivalent.

    With ``wall_tolerance`` (a relative fraction, e.g. ``0.25`` for
    25%), the wall-clock fields are no longer ignored: each pair must
    agree within ``tolerance * max(|a|, |b|)``. That turns the
    comparison from "identical modulo wall time" into "identical, and
    no slower than X%" — the regression gate
    ``scripts/diff_bench.py --tolerance`` exposes.

    ``ignore_keys`` adds report keys to the ignored set, e.g. a
    header field one side of the comparison predates.

    ``wall_floor_s`` is an absolute noise floor for the tolerance
    comparison: wall differences below it always pass. A relative
    bound alone is meaningless for millisecond-scale experiments,
    where scheduler jitter routinely exceeds any sane percentage.
    """
    differences: List[str] = []
    ignored = VOLATILE_KEYS if wall_tolerance is None else (
        VOLATILE_KEYS - WALL_KEYS)
    if ignore_keys:
        ignored = ignored | frozenset(ignore_keys)

    # Reports produced under different multi-queue datapath shapes are
    # incomparable: every row legitimately differs, so a row-by-row
    # diff would bury the real cause in noise. Surface the config
    # mismatch alone and stop.
    if "queue_config" not in ignored:
        config_a = a.get("queue_config")
        config_b = b.get("queue_config")
        if (config_a is not None and config_b is not None
                and config_a != config_b):
            changed = sorted(
                key for key in set(config_a) | set(config_b)
                if config_a.get(key) != config_b.get(key))
            return [
                "queue_config mismatch — reports were produced under "
                "different multi-queue configurations and are not "
                "comparable: "
                + ", ".join(
                    f"{key}: {config_a.get(key)!r} vs {config_b.get(key)!r}"
                    for key in changed)
            ]

    # Same story for the fabric topology: a routed Clos suite times
    # every transfer hop-by-hop, so its rows can never match single-hop
    # rows and a row diff would just be noise.
    if "topology" not in ignored:
        topo_a = a.get("topology")
        topo_b = b.get("topology")
        if topo_a is not None and topo_b is not None and topo_a != topo_b:
            changed = sorted(
                key for key in set(topo_a) | set(topo_b)
                if topo_a.get(key) != topo_b.get(key))
            return [
                "topology mismatch — reports were produced under "
                "different fabric topologies and are not comparable: "
                + ", ".join(
                    f"{key}: {topo_a.get(key)!r} vs {topo_b.get(key)!r}"
                    for key in changed)
            ]

    def walk(path: str, left, right) -> None:
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                if key in ignored:
                    continue
                child = f"{path}.{key}" if path else key
                if key not in left:
                    if not _zero_like(right[key]):
                        differences.append(f"{child}: only in second")
                elif key not in right:
                    if not _zero_like(left[key]):
                        differences.append(f"{child}: only in first")
                elif (key in WALL_KEYS and wall_tolerance is not None
                      and isinstance(left[key], (int, float))
                      and isinstance(right[key], (int, float))):
                    l, r = left[key], right[key]
                    limit = max(wall_tolerance * max(abs(l), abs(r), 1e-9),
                                wall_floor_s)
                    if abs(l - r) > limit:
                        differences.append(
                            f"{child}: {l!r} vs {r!r} differs by more "
                            f"than {wall_tolerance:.0%}")
                else:
                    walk(child, left[key], right[key])
        elif isinstance(left, list) and isinstance(right, list):
            if len(left) != len(right):
                differences.append(
                    f"{path}: length {len(left)} != {len(right)}")
                return
            for index, (l, r) in enumerate(zip(left, right)):
                walk(f"{path}[{index}]", l, r)
        elif left != right:
            differences.append(f"{path}: {left!r} != {right!r}")

    walk("", a, b)
    return differences


# -- experiment shards -------------------------------------------------

def merge_experiment_shards(experiment: str, seed: int, quick: bool,
                            payloads: List):
    """Rebuild the unsharded ``ExperimentResult`` from shard payloads."""
    runner_module = _experiment_module(experiment)
    return runner_module.merge_shards(seed=seed, quick=quick,
                                      payloads=payloads)


def _experiment_module(experiment: str):
    from repro.experiments import ALL_EXPERIMENTS

    return sys.modules[ALL_EXPERIMENTS[experiment].__module__]


# -- BENCH reports -----------------------------------------------------

def merge_bench(jobs: Iterable, results: Dict[str, JobResult],
                header: dict) -> Tuple[dict, dict]:
    """Fold per-job results into the BENCH schema, in experiment order.

    ``jobs`` is the submitted job list (``ExperimentJob`` and
    ``ExperimentShardJob`` mixed); shard events and wall times are
    folded per experiment — counters sum, but ``queue_len_max`` is a
    high-water mark and aggregates by max, exactly like
    :func:`repro.sim.global_event_totals` folds multiple simulators —
    and shard payloads are merged back into one
    :class:`~repro.experiments.base.ExperimentResult` per experiment.

    Returns ``(report, experiment_results)``.
    """
    order: List[str] = []
    grouped: Dict[str, List] = {}
    for job in jobs:
        name = job.experiment
        if name not in grouped:
            grouped[name] = []
            order.append(name)
        grouped[name].append(job)

    report = dict(header)
    report["experiments"] = {}
    experiment_results = {}
    total = 0.0
    for name in order:
        events: Dict[str, int] = {}
        wall = 0.0
        shard_payloads = []
        whole_result = None
        for job in grouped[name]:
            result = results[job.key]
            wall += result.wall_s
            for counter, value in result.events.items():
                if counter == "queue_len_max":
                    events[counter] = max(events.get(counter, 0), value)
                else:
                    events[counter] = events.get(counter, 0) + value
            if isinstance(job, ExperimentShardJob):
                shard_payloads.append((job.shard, result.payload))
            else:
                whole_result = result.payload
        if shard_payloads:
            shard_payloads.sort(key=lambda pair: pair[0])
            whole_result = merge_experiment_shards(
                name, grouped[name][0].seed, grouped[name][0].quick,
                [payload for _, payload in shard_payloads])
        total += wall
        report["experiments"][name] = {
            "wall_s": round(wall, 6),
            "events": events,
        }
        experiment_results[name] = whole_result
    report["total_wall_s"] = round(total, 6)
    return report, experiment_results


# -- chaos sweep reports -----------------------------------------------

def merge_chaos(jobs: List[ChaosCampaignJob],
                results: Dict[str, JobResult],
                header: dict) -> Tuple[dict, Dict[int, dict], int]:
    """Fold campaign payloads into the sweep report, in seed order.

    Returns ``(report, minimized_plans_by_seed, failures)``; the report
    carries exactly the fields the serial sweep wrote, so serial and
    parallel reports stay byte-identical.
    """
    report = dict(header)
    report["campaigns"] = {}
    minimized: Dict[int, dict] = {}
    failures = 0
    for job in sorted(jobs, key=lambda j: j.seed):
        payload = results[job.key].payload
        report["campaigns"][str(job.seed)] = payload["entry"]
        if payload["failed"]:
            failures += 1
            if payload["minimized_plan"] is not None:
                minimized[job.seed] = payload["minimized_plan"]
    report["failures"] = failures
    return report, minimized, failures


# -- seed sweeps -------------------------------------------------------

def merge_sweep(jobs: List[SeedSweepJob],
                results: Dict[str, JobResult]) -> dict:
    """Per-seed rows plus aggregate statistics, in seed order."""
    rows = []
    for job in sorted(jobs, key=lambda j: j.seed):
        result = results[job.key]
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


def _stats(values: List[float]) -> dict:
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return {
        "mean": mean,
        "min": min(values),
        "max": max(values),
        "stddev": variance ** 0.5,
    }
