"""Region resilience drill: rack power loss under churn, SLOs intact.

The paper's control plane "selects an available bare-metal server and
picks an idle compute board" (Section 3.2) and assumes that selection
pool is healthy. This experiment drills the resilience layer that
keeps the assumption true at region scale (DESIGN.md §13): a 4-rack
Clos region runs tenant arrival/exit churn at ~85% occupancy, a
``rack_power`` fault takes out a full rack mid-churn, and the control
plane must:

* detect the dead servers by fleet probe, quarantine them, drain and
  migrate their guests (premium first), repair, and readmit — with
  exactly-once semantics per incident;
* keep premium-tier availability at or above the 99.9% SLO across the
  whole run, measured by the same :class:`~repro.faults.accounting.
  AvailabilityAccounting` the fault stack uses;
* shed best-effort arrivals through the admission circuit breaker
  while the fleet is short a rack — and never shed premium;
* never place a guest on a quarantined server, and close every
  remediation ticket before the run ends.

The drill runs through :class:`~repro.chaos.region.RegionCampaignRunner`
with one hand-written plan. The invariant monitors it installs
(:mod:`repro.fleet.monitors`) sample those properties *during* the run;
the checks below assert them end-state.
Rows report per-tier availability plus the remediation latency
breakdown (detect → drain → full remediation), which is also what
:mod:`scripts.export_bench` lifts into the perf trajectory.
"""

from __future__ import annotations

from typing import Dict, List

from repro.chaos.region import RegionCampaignRunner
from repro.cloud.admission import TIERS
from repro.experiments.base import ExperimentResult, check
from repro.faults.spec import FaultPlan, FaultSpec
from repro.fleet.region import RegionSpec

EXPERIMENT_ID = "region_resilience"
TITLE = "Region control-plane resilience under a rack power fault"

PREMIUM_SLO = 0.999

# The drill: one full rack loses power mid-churn and stays dark for
# 1.5 simulated seconds — long enough that every guest on it must be
# migrated (waiting out the outage would blow the SLO), short enough
# that repair + readmission completes well inside the run.
FAULT_AT_S = 6.0
FAULT_DURATION_S = 1.5
FAULT_RACK = "rack-1"
MONITOR_PERIOD_S = 50e-3


def _spec(quick: bool) -> RegionSpec:
    if quick:
        return RegionSpec(duration_s=16.0)
    return RegionSpec(duration_s=40.0)


def run(seed: int = 0, quick: bool = True) -> ExperimentResult:
    spec = _spec(quick)
    plan = FaultPlan.of(FaultSpec(
        kind="rack_power", target=FAULT_RACK,
        at_s=FAULT_AT_S, duration_s=FAULT_DURATION_S))
    outcome = RegionCampaignRunner(
        spec, monitor_period_s=MONITOR_PERIOD_S).run(seed, plan)
    region, suite = outcome.region, outcome.suite

    report = region.report()
    tiers = report["tiers"]
    rows: List[Dict] = []
    for tier in TIERS:
        stats = tiers[tier]
        rows.append({
            "tier": tier,
            "guests": int(stats["guests"]),
            "guest_seconds": round(stats["guest_seconds"], 6),
            "downtime_s": round(stats["downtime_s"], 6),
            "availability_pct": round(stats["availability"] * 100, 4),
            "breaker_shed": region.shed.get((tier, "shed"), 0),
        })

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    rows.append({
        "tier": "remediation",
        "tickets": len(region.pipeline.tickets),
        "detect_ms": round(mean(region.detection_latencies_s) * 1e3, 4),
        "drain_ms": round(mean(region.drain_latencies_s) * 1e3, 4),
        "remediate_ms": round(mean(region.remediation_latencies_s) * 1e3, 4),
        "migrations": region.migrations,
        "audit_entries": report["audit_entries"],
    })

    premium = tiers["premium"]["availability"]
    best_effort_shed = region.shed.get(("best_effort", "shed"), 0)
    premium_shed = region.shed.get(("premium", "shed"), 0)
    open_tickets = [t for t in region.pipeline.tickets if not t.closed]
    checks = [
        check("premium availability meets the 99.9% SLO",
              premium >= PREMIUM_SLO,
              f"premium availability {premium:.6f} vs SLO {PREMIUM_SLO}"),
        check("rack fault detected and remediated",
              len(region.pipeline.tickets) == spec.servers_per_rack
              and region.migrations > 0,
              f"{len(region.pipeline.tickets)} tickets for "
              f"{spec.servers_per_rack} rack servers, "
              f"{region.migrations} migrations"),
        check("every drained guest resolved exactly once",
              region.double_migrations == 0 and region.drain_failures == 0,
              f"double_migrations={region.double_migrations}, "
              f"drain_failures={region.drain_failures}"),
        check("zero placements on quarantined servers",
              region.placements_on_quarantined == 0,
              f"placements_on_quarantined="
              f"{region.placements_on_quarantined}"),
        check("best-effort absorbed the shed; premium never shed",
              best_effort_shed > 0 and premium_shed == 0,
              f"best_effort shed {best_effort_shed}, "
              f"premium shed {premium_shed}"),
        check("every remediation ticket closed, fleet healthy at end",
              not open_tickets
              and report["health_counts"]["healthy"]
              == len(region.scheduler.servers),
              f"{len(open_tickets)} open tickets; health counts "
              f"{report['health_counts']}"),
        check("invariant monitors stayed clean",
              suite.ok,
              f"{len(suite.violations)} violation(s) over "
              f"{suite.samples} samples"),
        check("audit log verifies end to end",
              report["audit_ok"], f"{report['audit_entries']} entries"),
    ]
    notes = (
        f"{spec.n_racks}x{spec.servers_per_rack} servers, "
        f"{spec.boards_per_server} boards each; rack_power on "
        f"{FAULT_RACK} at t={FAULT_AT_S}s for {FAULT_DURATION_S}s; "
        f"detect {mean(region.detection_latencies_s)*1e3:.1f} ms, "
        f"remediate {mean(region.remediation_latencies_s)*1e3:.1f} ms"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE,
        rows=rows, checks=checks, notes=notes,
    )


def bench_columns(result: ExperimentResult) -> Dict[str, float]:
    """Deterministic perf columns for BENCH_<n>.json (export_bench hook)."""
    remediation = next(
        (row for row in result.rows if row.get("tier") == "remediation"), {})
    premium = next(
        (row for row in result.rows if row.get("tier") == "premium"), {})
    return {
        "detect_ms": remediation.get("detect_ms", 0.0),
        "drain_ms": remediation.get("drain_ms", 0.0),
        "remediate_ms": remediation.get("remediate_ms", 0.0),
        "migrations": remediation.get("migrations", 0),
        "audit_entries": remediation.get("audit_entries", 0),
        "premium_availability_pct": premium.get("availability_pct", 0.0),
    }
