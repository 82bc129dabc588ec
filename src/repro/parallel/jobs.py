"""Typed, picklable job specs for the experiment process pool.

Every job is a frozen dataclass that travels to a worker process over a
pipe, so it must stay picklable: ids and parameters only, never live
simulators, callables, or open resources. A job names *what* to run
(``experiment``/``seed``) plus the knobs the serial front-ends expose
(``quick``, ``profile``); the worker resolves the actual
runner from :data:`repro.experiments.ALL_EXPERIMENTS` at execution
time.

:func:`execute` is the single entry point the pool's workers (and the
``--jobs 1`` inline path) use. It brackets each job with
:func:`repro.sim.reset_global_stats` / :func:`repro.sim.global_event_totals`
so the kernel counters in a :class:`JobResult` are exactly the events
*this* job scheduled — per-worker totals the merge layer can sum into
the same numbers a serial run would have reported.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = [
    "JobResult",
    "ExperimentJob",
    "ExperimentShardJob",
    "RegionShardJob",
    "ChaosCampaignJob",
    "SeedSweepJob",
    "execute",
    "resolve_profile",
]


@dataclass
class JobResult:
    """What one job produced, plus the kernel counters it cost.

    ``events`` is the :func:`~repro.sim.global_event_totals` delta for
    the job alone (the worker resets the registry around every job);
    ``attempts`` counts pool dispatches (2 means the first worker died
    and the job was retried on a fresh one).
    """

    key: str
    payload: Any
    events: Dict[str, int]
    wall_s: float
    attempts: int = 1


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


def _resolve_runner(experiment: str):
    from repro.experiments import ALL_EXPERIMENTS

    try:
        return ALL_EXPERIMENTS[experiment]
    except KeyError:
        known = ", ".join(sorted(ALL_EXPERIMENTS))
        raise ValueError(f"unknown experiment {experiment!r}; known: {known}")


def _run_experiment(experiment: str, seed: int, quick: bool,
                    profile: Optional[str], mode: Optional[str] = None):
    runner = _resolve_runner(experiment)
    kwargs = {"seed": seed, "quick": quick}
    if profile is not None:
        if "profile" not in inspect.signature(runner).parameters:
            raise ValueError(
                f"experiment {experiment!r} does not accept a profile")
        kwargs["profile"] = resolve_profile(profile)
    if mode is not None:
        if "mode" not in inspect.signature(runner).parameters:
            raise ValueError(
                f"experiment {experiment!r} does not accept a testbed mode")
        kwargs["mode"] = mode
    return runner(**kwargs)


@dataclass(frozen=True)
class ExperimentJob:
    """Run one whole experiment: ``ALL_EXPERIMENTS[experiment](...)``.

    ``mode`` selects the testbed start-up fidelity for experiments that
    accept one (``fast``/``booted``/``warm``). ``warm_snapshots`` ships
    pre-computed :class:`~repro.experiments.common.TestbedSnapshot`
    objects with the job; the worker loads them into its process-wide
    warm cache (a ``setdefault``, so the boot is paid at most once per
    worker) and every warm-start inside the job restores instead of
    booting.
    """

    experiment: str
    seed: int = 0
    quick: bool = True
    profile: Optional[str] = None
    mode: Optional[str] = None
    warm_snapshots: Optional[tuple] = None

    @property
    def key(self) -> str:
        base = f"experiment:{self.experiment}:seed{self.seed}"
        # Suffix only when a mode is chosen, so historical keys (and the
        # reports built from them) are unchanged.
        return base if self.mode is None else f"{base}:{self.mode}"

    def run(self):
        if self.warm_snapshots:
            from repro.experiments.common import load_warm_cache

            load_warm_cache(self.warm_snapshots)
        return _run_experiment(self.experiment, self.seed, self.quick,
                               self.profile, self.mode)


@dataclass(frozen=True)
class ExperimentShardJob:
    """Run one shard of an experiment that declares a shard protocol.

    An experiment module may expose ``shard_plan(seed, quick)`` (a cheap
    list of picklable shard specs), ``run_shard(spec)`` (the expensive
    part, one independent simulation), and
    ``merge_shards(seed, quick, payloads)`` (rebuild the exact
    :class:`~repro.experiments.base.ExperimentResult` the unsharded
    ``run()`` returns). The orchestrator fans the shards across workers
    and merges in index order, so a multi-campaign experiment no longer
    serializes the whole suite behind one long job.
    """

    experiment: str
    shard: int
    seed: int = 0
    quick: bool = True

    @property
    def key(self) -> str:
        return f"shard:{self.experiment}:seed{self.seed}:{self.shard}"

    def run(self):
        module = _shard_module(self.experiment)
        specs = module.shard_plan(seed=self.seed, quick=self.quick)
        if not 0 <= self.shard < len(specs):
            raise ValueError(
                f"{self.experiment} has {len(specs)} shards, "
                f"no shard {self.shard}")
        return module.run_shard(specs[self.shard])


def _shard_module(experiment: str):
    import sys

    runner = _resolve_runner(experiment)
    module = sys.modules[runner.__module__]
    if not is_shardable(experiment):
        raise ValueError(f"experiment {experiment!r} is not shardable")
    return module


def is_shardable(experiment: str) -> bool:
    """True iff the experiment module declares the shard protocol."""
    import sys

    runner = _resolve_runner(experiment)
    module = sys.modules[runner.__module__]
    return all(hasattr(module, name)
               for name in ("shard_plan", "run_shard", "merge_shards"))


@dataclass(frozen=True)
class RegionShardJob:
    """One per-rack shard of a region-scale churn run (DESIGN.md §14).

    A shard is a fully independent region — ``racks`` racks of bm
    servers, fabric stubbed out, probes off — driven by the vectorized
    churn engine at ``occupancy``-target load for ``duration_s``
    simulated seconds. Shards of one rung differ only in their derived
    simulator seed, so a rung is embarrassingly parallel and its merge
    (summing the deterministic counters in shard order) is byte-
    identical whether the shards ran inline or across a pool.

    The payload separates deterministic simulation counters from the
    wall-clock measurements: everything volatile lives under the
    ``throughput`` key, which the merge layer's
    :data:`~repro.parallel.merge.VOLATILE_KEYS` ignores when diffing.
    """

    seed: int
    rung: int
    shard: int
    racks: int
    servers_per_rack: int = 16
    boards_per_server: int = 16
    duration_s: float = 11.0
    occupancy: float = 0.8
    mean_lifetime_s: float = 2.0
    guests: str = "arrays"

    @property
    def key(self) -> str:
        return f"region-shard:seed{self.seed}:rung{self.rung}:{self.shard}"

    @property
    def shard_seed(self) -> int:
        """Independent per-shard root seed (stable, collision-free)."""
        return self.seed * 100003 + self.rung * 101 + self.shard

    def run(self) -> Dict:
        import resource

        from repro.cloud.admission import AdmissionPolicy
        from repro.fleet import (ChurnPlan, Region, RegionSpec,
                                 VectorizedChurnEngine)
        from repro.sim import Simulator

        t_start = time.perf_counter()
        boards = self.racks * self.servers_per_rack * self.boards_per_server
        rate = self.occupancy * boards / self.mean_lifetime_s
        spec = RegionSpec(
            n_racks=self.racks,
            servers_per_rack=self.servers_per_rack,
            boards_per_server=self.boards_per_server,
            duration_s=self.duration_s,
            arrival_rate_per_s=rate,
            mean_lifetime_s=self.mean_lifetime_s,
            fabric=False,
            # The front door must not throttle a scale benchmark: the
            # default per-tier 1000/s buckets would turn region-sized
            # arrival rates into millions of audited rejections.
            admission=AdmissionPolicy(
                limits=(("premium", 1e9, 1e9), ("standard", 1e9, 1e9),
                        ("best_effort", 1e9, 1e9)),
                shed_at=(("best_effort", 0.05),)),
        )
        sim = Simulator(seed=self.shard_seed)
        region = Region(sim, spec)
        plan = ChurnPlan.for_region(region)
        region.start(probes=False, arrivals=False)
        engine = VectorizedChurnEngine(region, plan, guests=self.guests)
        engine.start()
        t_built = time.perf_counter()
        sim.run(until=spec.duration_s)
        run_wall = time.perf_counter() - t_built
        region.finalize()
        try:
            index_ok = region.scheduler.verify_index()
        except AssertionError:
            index_ok = False
        placed = sum(region.placed.values())
        churn_events = len(engine._ev_time)
        wall = time.perf_counter() - t_start
        return {
            "rung": self.rung,
            "shard": self.shard,
            "racks": self.racks,
            "servers": self.racks * self.servers_per_rack,
            "boards": boards,
            "arrivals": len(plan),
            "placed": placed,
            "exits": region.exits,
            "running_at_end": region.running_guests(),
            "shed": sum(region.shed.values()),
            "capacity_rejections": sum(region.capacity_rejections.values()),
            "churn_events": churn_events,
            "index_ok": index_ok,
            "audit_ok": region.audit.verify(),
            "audit_entries": len(region.audit),
            "throughput": {
                "wall_s": round(wall, 6),
                "build_wall_s": round(t_built - t_start, 6),
                "run_wall_s": round(run_wall, 6),
                "placements_per_s": round(placed / run_wall, 1)
                if run_wall > 0 else 0.0,
                "churn_events_per_s": round(churn_events / run_wall, 1)
                if run_wall > 0 else 0.0,
                "peak_rss_kb": int(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
            },
        }


@dataclass(frozen=True)
class ChaosCampaignJob:
    """One chaos campaign seed: run, and shrink if it fails.

    ``run`` reproduces exactly what one loop iteration of the serial
    ``scripts/chaos_sweep.py`` produced — the campaign's report entry,
    extended with the shrink summary and the minimized plan JSON when
    the campaign fails — so a parallel sweep merges to a byte-identical
    report.
    """

    seed: int
    inject_regression: bool = False
    shrink_runs: int = 120

    @property
    def key(self) -> str:
        return f"chaos:seed{self.seed}"

    def run(self):
        from repro.chaos import (CampaignRunner, RegressionProbeMonitor,
                                 shrink_plan)

        extra = None
        if self.inject_regression:
            extra = lambda ctx: [RegressionProbeMonitor(ctx.injector)]
        runner = CampaignRunner(extra_monitors=extra)
        outcome = runner.run(self.seed)
        entry = outcome.report()
        minimized_plan = None
        if outcome.failed:
            shrunk = shrink_plan(
                outcome.plan,
                lambda plan: runner.run(self.seed, plan=plan).failed,
                max_runs=self.shrink_runs,
            )
            entry["shrink"] = {
                "summary": shrunk.summary(),
                "runs": shrunk.runs,
                "minimal_faults": len(shrunk.plan),
                "budget_exhausted": shrunk.budget_exhausted,
            }
            minimized_plan = {
                "json": shrunk.plan.to_json() + "\n",
                "summary": shrunk.summary(),
                "describe": shrunk.plan.describe(),
            }
        return {
            "seed": self.seed,
            "failed": outcome.failed,
            "entry": entry,
            "minimized_plan": minimized_plan,
        }


@dataclass(frozen=True)
class SeedSweepJob:
    """One seed of a named experiment, summarized for a sweep row.

    The payload is a compact, JSON-able per-seed row: pass/fail, which
    checks failed, a SHA-256 over the result rows (so cross-seed
    stability is one string comparison), and the mean of every numeric
    row column for aggregate statistics.
    """

    experiment: str
    seed: int
    quick: bool = True
    profile: Optional[str] = None

    @property
    def key(self) -> str:
        return f"sweep:{self.experiment}:seed{self.seed}"

    def run(self):
        import hashlib
        import json

        result = _run_experiment(self.experiment, self.seed, self.quick,
                                 self.profile)
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
            "seed": self.seed,
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


def execute(job) -> JobResult:
    """Run one job with per-job kernel-counter isolation.

    Used identically by pool workers and by the inline ``--jobs 1``
    path, which is what makes serial and parallel runs comparable: the
    events in every :class:`JobResult` are a clean per-job delta.
    """
    from repro.sim import global_event_totals, reset_global_stats

    reset_global_stats()
    start = time.perf_counter()
    payload = job.run()
    wall = time.perf_counter() - start
    return JobResult(key=job.key, payload=payload,
                     events=global_event_totals(), wall_s=wall)
