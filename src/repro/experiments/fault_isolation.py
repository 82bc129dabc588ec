"""Fault isolation: a bm-hypervisor crash has a one-guest blast radius.

The paper's density argument relies on failure independence: "every
bm-hypervisor process provides service to one bm-guest only" (Section
3.2), so a crashed backend takes down exactly its own guest's I/O and
nothing else. This experiment crashes the victim's bm-hypervisor in
the middle of a two-guest run and verifies both halves of the claim:

* the victim sees a *bounded* outage — its in-flight request is
  replayed (never lost, never duplicated) and service resumes within
  the supervisor's recovery budget;
* the co-tenant's completion records are **bit-identical** to a
  fault-free run of the same seed — not "statistically similar",
  identical floats, the strongest isolation statement a deterministic
  simulation can make.

Each guest gets its own storage backend (distinctly named media, hence
independent RNG streams and channel pools), mirroring volumes living
on different storage-cluster nodes; the guests still share the server,
the chassis, the fabric NIC, and the supervisor.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.backend.media import CLOUD_SSD
from repro.backend.spdk import SpdkStorage
from repro.core.server import BmHiveServer
from repro.experiments.base import ExperimentResult, check
from repro.faults import (
    AvailabilityAccounting,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RingBlkLoad,
    Supervisor,
)
from repro.sim import Simulator
from repro.virtio.reliability import RetryPolicy

EXPERIMENT_ID = "fault_isolation"
TITLE = "Hypervisor-crash blast radius: victim bounded, co-tenant untouched"

PERIOD_S = 400e-6
# Crash lands mid-service of the victim's 7th request (issued at
# 6 x 400 us; the backend round trip is ~140 us), so the shadow vring
# holds a consumed-but-uncompleted entry that recovery must replay.
CRASH_AT_S = 6 * PERIOD_S + 50e-6
POLICY = RetryPolicy(timeout_s=20e-3, max_retries=5)


def _run_scenario(seed: int, plan: FaultPlan, n_requests: int):
    """One complete two-guest run under ``plan``; returns all actors."""
    sim = Simulator(seed=seed)
    server = BmHiveServer(sim)
    accounting = AvailabilityAccounting(sim)
    supervisor = Supervisor(sim, accounting=accounting)
    injector = FaultInjector(sim, plan, accounting=accounting)

    loads: Dict[str, RingBlkLoad] = {}
    for name, offset in (("victim", 0.0), ("cotenant", PERIOD_S / 2)):
        guest = server.launch_guest(name=name)
        storage = SpdkStorage(
            sim, server.fabric, server.name,
            media=replace(CLOUD_SSD, name=f"cloud-ssd-{name}"),
        )
        load = RingBlkLoad(sim, guest, storage, n_requests=n_requests,
                           period_s=PERIOD_S, offset_s=offset, policy=POLICY)
        load.install()
        supervisor.watch(guest)
        loads[name] = load

    injector.arm(server)
    for load in loads.values():
        sim.spawn(load.run())
    sim.run(until=n_requests * PERIOD_S + 0.2)
    # Close any down span still open at the horizon so downtime/MTTR
    # are final numbers, not moving targets of "now".
    accounting.finalize()
    return sim, loads, supervisor, accounting


def run(seed: int = 0, quick: bool = True) -> ExperimentResult:
    n_requests = 48 if quick else 160
    plan = FaultPlan.of(
        FaultSpec(kind="hypervisor_crash", target="victim", at_s=CRASH_AT_S)
    )
    sim_f, faulted, supervisor, accounting = _run_scenario(
        seed, plan, n_requests)
    sim_0, clean, _, _ = _run_scenario(seed, FaultPlan.none(), n_requests)

    victim = faulted["victim"]
    cotenant = faulted["cotenant"]
    completions = sorted(done for _, _, done, _ in victim.records)
    gaps = [b - a for a, b in zip(completions, completions[1:])]
    victim_gap = max(gaps) if gaps else 0.0
    budget = supervisor.spec.recovery_budget_s() + 2 * PERIOD_S
    restarts = supervisor.records

    rows = []
    for name in ("victim", "cotenant"):
        load = faulted[name]
        summary = accounting.summary(name)
        rows.append({
            "guest": name,
            "requests": load.n_requests,
            "completed": len(load.records),
            "retries": load.retries,
            "lost": len(load.failures),
            "duplicated": load.duplicate_completions,
            "downtime_ms": summary["downtime_s"] * 1e3,
            "mttr_ms": summary["mttr_s"] * 1e3,
            "availability": summary["availability"],
        })

    checks = [
        check("co-tenant records bit-identical to fault-free run",
              cotenant.records == clean["cotenant"].records
              and cotenant.records,
              f"{len(cotenant.records)} records compared exactly"),
        check("co-tenant saw zero downtime",
              accounting.downtime("cotenant") == 0.0),
        check("victim completed every request exactly once",
              len(victim.records) == n_requests
              and sorted(i for i, _, _, _ in victim.records)
              == list(range(n_requests))
              and not victim.failures and victim.duplicate_completions == 0,
              f"{len(victim.records)}/{n_requests}, "
              f"{len(victim.failures)} lost, "
              f"{victim.duplicate_completions} duplicated"),
        check("victim needed the retry datapath", victim.retries > 0,
              f"{victim.retries} retries"),
        check("crashed hypervisor was restarted exactly once",
              len(restarts) == 1 and not restarts[0].gave_up,
              f"{len(restarts)} restarts"),
        check("in-flight descriptor was replayed, not lost",
              restarts and restarts[0].replayed_entries >= 1,
              f"{restarts[0].replayed_entries if restarts else 0} replayed"),
        check("victim outage bounded by the recovery budget",
              victim_gap <= budget,
              f"max gap {victim_gap * 1e3:.2f} ms <= "
              f"budget {budget * 1e3:.2f} ms"),
        check("fault-free co-tenant run is clean",
              clean["cotenant"].retries == 0 and not clean["cotenant"].failures),
    ]
    notes = (f"crash at {CRASH_AT_S * 1e3:.2f} ms; victim MTTR "
             f"{accounting.mttr('victim') * 1e3:.2f} ms; clocks "
             f"fault={sim_f.now:.3f}s clean={sim_0.now:.3f}s")
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, checks, notes=notes)
