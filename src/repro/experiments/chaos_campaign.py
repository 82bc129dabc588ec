"""Chaos campaign: N seeded random fault plans, zero invariant breaks.

The robustness claim behind the paper's density argument is not one
scripted crash but *any* realistic pile-up of infrastructure faults:
link flaps, DMA stalls, mailbox timeouts, backend disconnects,
brownouts, and hypervisor crashes, overlapping and bursty. This
experiment drives the chaos pipeline (:mod:`repro.chaos`) over a batch
of campaign seeds and holds the stack to three standards at once:

* **invariants during the run** — the monitor suite samples exactly-
  once used-ring delivery, shadow-vring conservation and sync windows,
  PCIe/DMA counter sanity, availability-span consistency, and
  end-of-run quiescence on every campaign, faulted and baseline alike;
* **differential isolation** — every guest the plan never targeted
  must produce completion records float-for-float identical to the
  fault-free baseline (the fault-isolation experiment's check,
  generalized to arbitrary plans);
* **replayability** — re-running a campaign seed reproduces the
  campaign report byte for byte.
"""

from __future__ import annotations

from typing import Dict, List

from repro.chaos import CampaignRunner
from repro.experiments.base import ExperimentResult, check

EXPERIMENT_ID = "chaos_campaign"
TITLE = "Randomized fault campaigns: invariants hold, co-tenants untouched"


def _n_campaigns(quick: bool) -> int:
    return 6 if quick else 20


def shard_plan(seed: int = 0, quick: bool = True) -> List[Dict]:
    """Independent shards: one per campaign, plus the replay campaign.

    Every campaign is a pure function of its seed (two fresh
    simulations per :meth:`CampaignRunner.run`), so the experiment
    parallelizes at campaign granularity. The final shard re-runs the
    first campaign seed from scratch; the byte-identity comparison
    between the two reports happens in :func:`merge_shards`.
    """
    shards = [{"role": "campaign", "campaign_seed": seed + k,
               "base_seed": seed}
              for k in range(_n_campaigns(quick))]
    shards.append({"role": "replay", "campaign_seed": seed,
                   "base_seed": seed})
    return shards


def run_shard(spec: Dict) -> Dict:
    """Run one campaign and summarize it as a picklable payload."""
    runner = CampaignRunner()
    outcome = runner.run(spec["campaign_seed"])
    loads = outcome.chaos.loads.values()
    payload = {
        "role": spec["role"],
        "campaign": outcome.seed,
        "faults": len(outcome.plan),
        "kinds": sorted({f.kind for f in outcome.plan.schedule()}),
        "protected": len(outcome.protected),
        "completed": sum(len(l.records) for l in loads),
        "requests": sum(l.n_requests for l in loads),
        "retries": sum(l.retries for l in loads),
        "violations": len(outcome.violations),
        "oracle_diffs": len(outcome.oracle_diffs),
        "lost": sum(len(l.failures) for l in loads),
        "duplicated": sum(l.duplicate_completions for l in loads),
        "monitor_samples": outcome.chaos.suite.samples,
    }
    # Only the first campaign and its replay need the full report: the
    # byte-identity check compares exactly these two strings.
    if spec["campaign_seed"] == spec["base_seed"]:
        payload["report_json"] = outcome.report_json()
    return payload


def merge_shards(seed: int, quick: bool,
                 payloads: List[Dict]) -> ExperimentResult:
    """Fold shard payloads (in shard order) back into the experiment."""
    campaigns = [p for p in payloads if p["role"] == "campaign"]
    replays = [p for p in payloads if p["role"] == "replay"]
    if len(campaigns) != _n_campaigns(quick) or len(replays) != 1:
        raise ValueError(
            f"expected {_n_campaigns(quick)} campaign shards + 1 replay, "
            f"got {len(campaigns)} + {len(replays)}")

    rows = []
    kinds_seen = set()
    total_violations = 0
    total_diffs = 0
    total_lost = 0
    total_duplicated = 0
    for payload in campaigns:
        kinds_seen.update(payload["kinds"])
        total_violations += payload["violations"]
        total_diffs += payload["oracle_diffs"]
        total_lost += payload["lost"]
        total_duplicated += payload["duplicated"]
        rows.append({
            "campaign": payload["campaign"],
            "faults": payload["faults"],
            "kinds": ",".join(payload["kinds"]),
            "protected": payload["protected"],
            "completed": f"{payload['completed']}/{payload['requests']}",
            "retries": payload["retries"],
            "violations": payload["violations"],
            "oracle_diffs": payload["oracle_diffs"],
        })

    # Replayability: the first campaign, re-run from scratch, must
    # reproduce its report byte for byte.
    deterministic = replays[0]["report_json"] == campaigns[0]["report_json"]

    # Only the config is consulted here — building a runner is cheap
    # (no simulation) and keeps the derived constants in one place.
    runner = CampaignRunner()
    n_campaigns = len(campaigns)
    min_kinds = 4 if quick else len(
        {k for k, w in runner.config.kind_weights if w > 0})
    checks = [
        check("zero invariant violations across all campaigns",
              total_violations == 0,
              f"{total_violations} violations over {n_campaigns} campaigns"),
        check("differential oracle clean for every untargeted guest",
              total_diffs == 0,
              f"{total_diffs} record divergences"),
        check("every campaign injected at least one fault",
              all(p["faults"] >= 1 for p in campaigns),
              f"fault counts {[p['faults'] for p in campaigns]}"),
        check("fault-kind coverage across the sweep",
              len(kinds_seen) >= min_kinds,
              f"{len(kinds_seen)} kinds seen: {sorted(kinds_seen)}"),
        check("no request lost or double-delivered under chaos",
              total_lost == 0 and total_duplicated == 0,
              f"{total_lost} lost, {total_duplicated} duplicated"),
        check("campaign report replays byte-identically",
              deterministic),
    ]
    notes = (f"{n_campaigns} campaigns, "
             f"{sum(p['faults'] for p in campaigns)} faults total, "
             f"{campaigns[0]['monitor_samples']} monitor samples/run, "
             f"horizon {runner.config.horizon_s * 1e3:.0f} ms, "
             f"until {runner.until_s():.3f} s")
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, checks, notes=notes)


def run(seed: int = 0, quick: bool = True) -> ExperimentResult:
    shards = shard_plan(seed=seed, quick=quick)
    return merge_shards(seed, quick, [run_shard(spec) for spec in shards])
