"""Episode loop, metrics and result of one benchmark run.

One run is one workload, one seed and one process. It repeats
episodes — set up, run, check — until the runs have measured at least
``seconds`` of host time, then reports:

* ``setup_s``: host seconds to build an episode's inputs;
* ``ops_per_s``: ops per host second of the timed phase;
* ``cpu_us_per_op``: ``process_time`` per op of the timed phase;
* ``peak_rss_mb``: peak RSS of this process.

The first three are the median of the fastest quarter of the episodes.
On a shared host, other tenants slow the code down in phases of
several seconds, by up to a third, and never speed it up; a plain
median moves with how much of a run such a phase covered. The fastest
episodes measure the code, and a change that slows every episode still
moves them in full.

Episode *k* of seed *s* is the same input in every run, so episode 0
is the run's deterministic reference: its simulated outcome metrics
and fingerprint are what two commits compare exactly.

The traced run alternates an untraced and a traced episode on the same
inputs. Their fingerprints must match (tracing adds no simulated time);
the traced ones give the per-layer metrics, the pairs give the tracing
overhead.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.sim.core import reset_global_stats

from perfbench import layers
from perfbench.spans import Tracer
from perfbench.workloads import Episode

__all__ = ["run", "traced_episode", "END_TO_END", "host_fingerprint",
           "fastest_quarter_median"]

#: (name, unit, better) of the untraced run's metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cpu_us_per_op", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

MIN_EPISODES = 3
#: Stop starting episodes after this much wall time, so that a run ends
#: well inside three minutes even on a slow host.
WALL_BUDGET_S = 120.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(root: Path) -> Dict[str, str]:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "git_commit": git_commit(root)}


def timed(fn, *args):
    """``(result, wall_s, cpu_s)`` of one call."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - wall, time.process_time() - cpu


def fastest_quarter_median(values: List[float],
                           higher_is_faster: bool) -> float:
    """Median of the fastest quarter (rounded up) of per-episode values."""
    ordered = sorted(values, reverse=higher_is_faster)
    return statistics.median(ordered[:(len(ordered) + 3) // 4])


def _episode(workload, seed: int, k: int, tracer: Optional[Tracer] = None):
    """Set up, run and check episode ``k``: ``(Episode, setup_s, wall, cpu)``."""
    if tracer is not None:
        tracer.set_phase("setup")
    state, setup_s, _ = timed(workload.setup, seed, k, tracer)
    if tracer is not None:
        tracer.set_phase("measure")
    _, wall, cpu = timed(workload.run, state)
    episode: Episode = workload.check(state)
    del state
    # Every Simulator registers its stats (and so its event queue) in a
    # process-wide list; drop it so finished episodes can be freed.
    reset_global_stats()
    gc.collect()
    return episode, setup_s, wall, cpu


def traced_episode(workload, seed: int, k: int, tracer: Tracer):
    """Episode ``k`` with every layer wrapped: ``(Episode, wall_s)``."""
    layers.install(tracer, workload.hooks(tracer))
    try:
        episode, _, wall, _ = _episode(workload, seed, k, tracer)
    finally:
        tracer.unpatch()
    return episode, wall


def run(workload, seed: int, seconds: float, trace: bool,
        out_dir: Optional[Path] = None, root: Optional[Path] = None,
        min_episodes: int = MIN_EPISODES) -> Dict:
    """Run one benchmark; returns the result object plus ``meta``."""
    started = time.perf_counter()
    episodes: List[Episode] = []
    setups, rates, cpus = [], [], []
    measured = 0.0
    failed = 0
    tracer = Tracer() if trace else None
    agg = layers.new_aggregate()
    traced_rates = []
    k = 0
    while k < min_episodes or measured < seconds:
        if k >= 1 and time.perf_counter() - started > WALL_BUDGET_S:
            break
        episode, setup_s, wall, cpu = _episode(workload, seed, k)
        episodes.append(episode)
        setups.append(setup_s)
        rates.append(episode.ops / wall)
        cpus.append(cpu / episode.ops * 1e6)
        measured += wall
        failed += episode.errors
        if trace:
            traced, twall = traced_episode(workload, seed, k, tracer)
            tracer.keep_spans = 0  # spans of the first traced episode only
            measured += twall
            traced_rates.append(traced.ops / twall)
            # Traced and untraced episodes share their inputs, so every
            # simulated output must match exactly.
            mismatch = traced.fingerprint != episode.fingerprint
            failed += traced.ops if mismatch else traced.errors
            layers.add_counters(agg, traced.counters)
            agg["ops"] += traced.ops
            agg["episodes"] += 1
            agg["untraced_wall_s"] += wall
            if k == 0:
                agg["outcome"] = dict(traced.outcome)
                agg["details"] = traced.details
        k += 1

    attempted = sum(e.ops for e in episodes)
    ops_per_s = fastest_quarter_median(rates, higher_is_faster=True)
    if trace:
        traced_ops_per_s = fastest_quarter_median(traced_rates,
                                                  higher_is_faster=True)
        attempted *= 2
        agg["errors"], agg["attempted"] = failed, attempted
        agg["overhead_pct"] = (1.0 - traced_ops_per_s / ops_per_s) * 100.0
        values = layers.layer_metrics(tracer, agg)
        units = layers.catalog_units()
    else:
        values = {
            "setup_s": fastest_quarter_median(setups, higher_is_faster=False),
            "ops_per_s": ops_per_s,
            "cpu_us_per_op": fastest_quarter_median(cpus,
                                                    higher_is_faster=False),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _ in END_TO_END}

    first = episodes[0]
    meta = {
        "host": host_fingerprint(root) if root else {},
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "episodes": len(episodes),
        "measured_s": measured,
        "episode_ops_per_s": rates,
        "episode_setup_s": setups,
        "fingerprint": first.fingerprint,
        "fingerprints": [e.fingerprint for e in episodes],
        "outcome": first.outcome,
        "error_rate": failed / attempted if attempted else 0.0,
        "details": {key: value for key, value in first.details.items()
                    if not key.endswith("_s")},
    }
    if trace:
        details = agg.get("details", {})
        meta["segments_mean_sim_us"] = details.get("segments_mean_sim_us")
        meta["ops_per_s_untraced"] = ops_per_s
        meta["ops_per_s_traced"] = traced_ops_per_s
        if out_dir is not None:
            _write_trace(tracer, out_dir, workload.name, seed, meta, values)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
        "meta": meta,
    }


def _write_trace(tracer: Tracer, out_dir: Path, name: str, seed: int,
                 meta: Dict, values: Dict) -> None:
    import json

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}"
    tracer.write_chrome_trace(f"{stem}.trace.json",
                              metadata={"workload": name, "seed": seed})
    with open(f"{stem}.layers.json", "w") as handle:
        json.dump({"meta": meta, "per_layer": values}, handle, indent=2,
                  sort_keys=True)
