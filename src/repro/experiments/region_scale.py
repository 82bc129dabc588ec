"""Region scale sweep: a million guest-lifetimes through one scheduler.

The paper's central density claim only matters if the control plane
keeps up at region scale: §6 sizes a deployment at hundreds of racks of
16-board BM Hive servers, and the launch/reclaim loop (Fig 4) has to
absorb the whole region's churn. This experiment drives exactly that
load through our control-plane model: racks of bm servers at a fixed
occupancy target, Poisson arrivals with exponential lifetimes drawn
from the calibrated churn model, every launch placed by the indexed
first-fit scheduler and every exit reclaimed board-by-board.

Three rungs — 4, 64, and 1024 racks in the full profile — hold the
per-board load constant while the fleet grows 256x, so any
superlinearity in cost-per-placement is the scheduler's own doing. The
top rung completes more than a million guest-lifetimes. Each rung is
split into per-rack-group shards (:class:`RegionShardJob`) that differ
only in derived seed, so the rung is embarrassingly parallel and the
merged counters are byte-identical whether shards ran serially or
across a worker pool.

Deterministic counters (arrivals, placements, exits, audit length) are
the experiment result; wall-derived throughput (placements/s, peak RSS)
rides along under the volatile ``throughput`` key that equivalence
diffs exclude (``scripts/diff_bench.py``) but the BENCH report still
records.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.cloud.admission import AdmissionPolicy
from repro.cloud.scheduler import SchedulerIndexError
from repro.experiments.base import ExperimentResult, check, check_between
from repro.fleet import ChurnPlan, Region, RegionSpec, VectorizedChurnEngine
from repro.sim import Simulator

EXPERIMENT_ID = "region_scale"
TITLE = "Region-scale churn: placement throughput vs fleet size"

# (total racks, shard count) per rung. Shards within a rung split the
# racks evenly; per-board load is identical across rungs so placement
# cost is the only thing that scales.
FULL_RUNGS = ((4, 1), (64, 4), (1024, 16))
QUICK_RUNGS = ((4, 1), (16, 2))

# Full profile matches the paper's hardware shape (16-board BM Hive
# chassis, 16 servers to a rack); quick shrinks both the fleet and the
# simulated window so the whole sweep stays sub-second for CI smoke.
FULL_SHAPE = dict(servers_per_rack=16, boards_per_server=16,
                  duration_s=11.0, occupancy=0.8, mean_lifetime_s=2.0)
QUICK_SHAPE = dict(servers_per_rack=4, boards_per_server=8,
                   duration_s=2.0, occupancy=0.8, mean_lifetime_s=0.5)


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

    @property
    def shard_seed(self) -> int:
        """Independent per-shard root seed (stable, collision-free)."""
        return self.seed * 100003 + self.rung * 101 + self.shard


# -- shard protocol (plan, run each shard anywhere, merge in order) ------

def shard_plan(seed: int = 0, quick: bool = True) -> List[RegionShardJob]:
    """Flat list of shard specs, rung-major then shard-index order."""
    rungs = QUICK_RUNGS if quick else FULL_RUNGS
    shape = QUICK_SHAPE if quick else FULL_SHAPE
    specs: List[RegionShardJob] = []
    for rung, (total_racks, n_shards) in enumerate(rungs):
        racks_per_shard, remainder = divmod(total_racks, n_shards)
        if remainder:
            raise ValueError(
                f"rung {rung}: {total_racks} racks not divisible "
                f"into {n_shards} shards")
        for shard in range(n_shards):
            specs.append(RegionShardJob(
                seed=seed, rung=rung, shard=shard,
                racks=racks_per_shard, **shape))
    return specs


def run_shard(spec: RegionShardJob) -> Dict:
    """Run one shard; a picklable payload for :func:`merge_shards`.

    The payload separates deterministic simulation counters from the
    wall-clock measurements: everything volatile lives under the
    ``throughput`` key, which BENCH diffs ignore.
    """
    t_start = time.perf_counter()
    boards = spec.racks * spec.servers_per_rack * spec.boards_per_server
    rate = spec.occupancy * boards / spec.mean_lifetime_s
    region_spec = RegionSpec(
        n_racks=spec.racks,
        servers_per_rack=spec.servers_per_rack,
        boards_per_server=spec.boards_per_server,
        duration_s=spec.duration_s,
        arrival_rate_per_s=rate,
        mean_lifetime_s=spec.mean_lifetime_s,
        fabric=False,
        # The front door must not throttle a scale benchmark: the
        # default per-tier 1000/s buckets would turn region-sized
        # arrival rates into millions of audited rejections.
        admission=AdmissionPolicy(
            limits=(("premium", 1e9, 1e9), ("standard", 1e9, 1e9),
                    ("best_effort", 1e9, 1e9)),
            shed_at=(("best_effort", 0.05),)),
    )
    sim = Simulator(seed=spec.shard_seed)
    region = Region(sim, region_spec)
    plan = ChurnPlan.for_region(region)
    region.start(probes=False, arrivals=False)
    engine = VectorizedChurnEngine(region, plan)
    engine.start()
    t_built = time.perf_counter()
    sim.run(until=region_spec.duration_s)
    run_wall = time.perf_counter() - t_built
    region.finalize()
    try:
        index_ok = region.scheduler.verify_index()
    except SchedulerIndexError:
        index_ok = False
    placed = sum(region.placed.values())
    churn_events = len(engine._ev_time)
    wall = time.perf_counter() - t_start
    return {
        "rung": spec.rung,
        "shard": spec.shard,
        "racks": spec.racks,
        "servers": spec.racks * spec.servers_per_rack,
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


def merge_shards(seed: int, quick: bool,
                 payloads: List[Dict]) -> ExperimentResult:
    """Fold shard payloads (in shard-plan index order) into one result."""
    rungs = QUICK_RUNGS if quick else FULL_RUNGS

    by_rung: Dict[int, List[Dict]] = {}
    for payload in payloads:
        by_rung.setdefault(payload["rung"], []).append(payload)

    rows = []
    for rung, (total_racks, n_shards) in enumerate(rungs):
        shards = by_rung.get(rung, [])
        counters = ("arrivals", "placed", "exits", "running_at_end",
                    "shed", "capacity_rejections", "churn_events",
                    "audit_entries")
        row = {"rung": rung, "racks": total_racks, "shards": n_shards}
        row["servers"] = sum(p["servers"] for p in shards)
        row["boards"] = sum(p["boards"] for p in shards)
        for name in counters:
            row[name] = sum(p[name] for p in shards)
        row["index_ok"] = all(p["index_ok"] for p in shards)
        row["audit_ok"] = all(p["audit_ok"] for p in shards)
        run_wall = sum(p["throughput"]["run_wall_s"] for p in shards)
        row["throughput"] = {
            "wall_s": round(sum(p["throughput"]["wall_s"]
                                for p in shards), 6),
            "run_wall_s": round(run_wall, 6),
            "placements_per_s": round(row["placed"] / run_wall, 1)
            if run_wall > 0 else 0.0,
            "us_per_placement": round(run_wall / row["placed"] * 1e6, 3)
            if row["placed"] else 0.0,
            "peak_rss_kb": max((p["throughput"]["peak_rss_kb"]
                                for p in shards), default=0),
        }
        rows.append(row)

    checks = [
        check("every shard ran", len(payloads) == sum(n for _, n in rungs),
              f"{len(payloads)} shard payloads for "
              f"{sum(n for _, n in rungs)} planned shards"),
        check("every rung placed guests",
              all(row["placed"] > 0 for row in rows),
              "placements per rung: "
              + ", ".join(str(row["placed"]) for row in rows)),
        check("scheduler index verified in every shard",
              all(row["index_ok"] for row in rows),
              "Scheduler.verify_index() after finalize, per shard"),
        check("audit chain verified in every shard",
              all(row["audit_ok"] for row in rows),
              "hash-chained audit log verifies end-to-end"),
        check("no guest lost",
              all(row["placed"] == row["exits"] + row["running_at_end"]
                  for row in rows),
              "placed == exits + still-running, per rung"),
        check("capacity rejections negligible at 0.8 occupancy",
              all(row["capacity_rejections"] <= 0.01 * row["arrivals"]
                  for row in rows),
              "rejections per rung: "
              + ", ".join(str(row["capacity_rejections"]) for row in rows)),
    ]
    # Steady state holds ~occupancy * boards guests; the band is wide
    # enough for Poisson noise on the smallest rung.
    for row in rows:
        checks.append(check_between(
            f"rung {row['rung']} end occupancy",
            row["running_at_end"] / row["boards"], 0.5, 0.98))

    if not quick:
        top = rows[-1]
        checks.append(check(
            "million guest-lifetimes at the top rung",
            top["placed"] >= 1_000_000,
            f"{top['placed']} placements across {top['racks']} racks"))
        # Wall-clock acceptance gates (volatile: these never enter the
        # BENCH diff, but they are the point of the perf work).
        # The shard rate divides placements by the *sum* of shard
        # run-walls, so concurrent shards double-count overlapped time
        # and a --jobs N run reads ~N x slower than the machine really
        # was. The in-result floor is therefore a contention-proof
        # sanity bound; the CI region-scale gate enforces the full 50k
        # placements/s claim on the serial (jobs=1) report.
        mid = next(row for row in rows if row["racks"] == 64)
        checks.append(check(
            "placement throughput sanity floor (64-rack rung)",
            mid["throughput"]["placements_per_s"] >= 5_000,
            f"{mid['throughput']['placements_per_s']:.0f} placements/s "
            "aggregate over shard run-walls (sanity floor 5k; CI gates "
            "50k on the serial report)"))
        checks.append(check(
            "per-placement cost flat 64 -> 1024 racks",
            top["throughput"]["us_per_placement"]
            <= 2.0 * mid["throughput"]["us_per_placement"],
            f"{top['throughput']['us_per_placement']:.2f} us at 1024 racks "
            f"vs {mid['throughput']['us_per_placement']:.2f} us at 64 "
            "(must be within 2x: placement is no longer O(servers))"))

    total = sum(row["placed"] for row in rows)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        checks=checks,
        notes=(
            f"{total} guest-lifetimes over {len(rows)} rungs "
            f"({', '.join(str(r) for r, _ in rungs)} racks); "
            "constant per-board load, indexed first-fit scheduler, "
            "vectorized churn engine with array-ledger guests."),
    )


def run(seed: int = 0, quick: bool = True) -> ExperimentResult:
    """Serial reference path: plan, run every shard inline, merge."""
    specs = shard_plan(seed=seed, quick=quick)
    payloads = [run_shard(spec) for spec in specs]
    return merge_shards(seed=seed, quick=quick, payloads=payloads)


def bench_columns(result: ExperimentResult) -> dict:
    """Per-rung BENCH columns; wall-derived rates stay under a volatile key."""
    rungs = {}
    throughput = {}
    for row in result.rows:
        label = f"racks{row['racks']}"
        rungs[label] = {
            "shards": row["shards"],
            "boards": row["boards"],
            "arrivals": row["arrivals"],
            "placements": row["placed"],
            "exits": row["exits"],
            "running_at_end": row["running_at_end"],
            "churn_events": row["churn_events"],
        }
        throughput[label] = dict(row["throughput"])
    return {
        "rungs": rungs,
        "guest_lifetimes_total": sum(row["placed"] for row in result.rows),
        "throughput": throughput,
    }
