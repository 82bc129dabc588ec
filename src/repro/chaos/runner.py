"""Campaign execution: build the testbed, arm the plan, watch everything.

One campaign = two complete multi-guest simulations of the same seed —
the chaos run (generated fault plan armed) and the fault-free baseline
— both carrying the identical monitor suite. The runner collects
invariant violations, runs the differential oracle over every guest
the plan never targeted, and folds the result into a byte-stable JSON
report: reports contain only simulated quantities (never wall-clock),
floats serialize via ``repr``, and keys are sorted, so re-running a
seed reproduces the report byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.backend.media import CLOUD_SSD
from repro.backend.spdk import SpdkStorage
from repro.chaos.campaign import CampaignConfig, CampaignGenerator
from repro.chaos.monitors import (
    AvailabilityMonitor,
    ConservationMonitor,
    ExactlyOnceRingMonitor,
    QuiescenceMonitor,
    RegressionProbeMonitor,
    ShadowSyncMonitor,
)
from repro.chaos.oracle import DifferentialOracle
from repro.chaos.shrink import shrink_plan
from repro.config.profile import HardwareProfile
from repro.core.server import BmHiveServer
from repro.fabric import (
    RoutingInvariantMonitor,
    TopologySpec,
    TransferConservationMonitor,
)
from repro.faults import (
    AvailabilityAccounting,
    FaultInjector,
    FaultPlan,
    RingBlkLoad,
    Supervisor,
)
from repro.sim import MonitorSuite, Simulator, Violation
from repro.sim.trace import Tracer
from repro.virtio.reliability import RetryPolicy

__all__ = ["ScenarioSpec", "ScenarioContext", "CampaignOutcome",
           "CampaignRunner", "sweep_campaign"]


@dataclass(frozen=True)
class ScenarioSpec:
    """Shape of the workload side of every campaign scenario.

    The retry policy gives each request a 220 ms recovery budget
    (``timeout_s * (max_retries + 1)``) — comfortably above the worst
    recoverable outage the campaign envelope can stack up (a crash
    recovery of ~62 ms plus overlapping millisecond-scale faults).
    ``tail_s`` extends the run past the last request so crash
    recoveries and reconnect backoffs land inside the simulated window.
    ``topology`` shapes the server's fabric; the default 2-rack/2-spine
    Clos gives every fabric fault a redundant path to reroute over, so
    the campaign envelope stays recoverable. ``TopologySpec()``
    (disabled) falls back to the single-hop fabric, in which case
    fabric fault kinds have no valid targets.
    """

    n_requests: int = 40
    period_s: float = 400e-6
    bystander: str = "bystander"
    policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(timeout_s=20e-3, max_retries=10))
    monitor_period_s: float = 250e-6
    tail_s: float = 0.35
    topology: TopologySpec = field(
        default_factory=lambda: TopologySpec.clos(2, 2))


@dataclass
class ScenarioContext:
    """Everything one scenario run produced, for monitors and checks."""

    sim: Simulator
    server: BmHiveServer
    loads: Dict[str, RingBlkLoad]
    supervisor: Supervisor
    accounting: AvailabilityAccounting
    injector: FaultInjector
    tracer: Tracer
    suite: Optional[MonitorSuite] = None


@dataclass
class CampaignOutcome:
    """Result of one campaign: chaos run + baseline + oracle verdict."""

    seed: int
    plan: FaultPlan
    until_s: float
    chaos: ScenarioContext
    baseline: ScenarioContext
    protected: tuple
    oracle_diffs: List[str]

    @property
    def violations(self) -> List[Violation]:
        return self.chaos.suite.violations + self.baseline.suite.violations

    @property
    def failed(self) -> bool:
        return bool(self.violations or self.oracle_diffs)

    def report(self) -> Dict:
        """Deterministic JSON-able summary (simulated quantities only)."""
        guests = {}
        for name in sorted(self.chaos.loads):
            load = self.chaos.loads[name]
            summary = self.chaos.accounting.summary(name)
            digest = hashlib.sha256(
                json.dumps(load.records).encode()).hexdigest()
            guests[name] = {
                "completed": len(load.records),
                "requests": load.n_requests,
                "retries": load.retries,
                "lost": len(load.failures),
                "duplicated": load.duplicate_completions,
                "downtime_ms": summary["downtime_s"] * 1e3,
                "availability": summary["availability"],
                "records_sha256": digest,
            }
        return {
            "campaign_seed": self.seed,
            "until_s": self.until_s,
            "clock_s": self.chaos.sim.now,
            "n_faults": len(self.plan),
            "plan": self.plan.to_dict(),
            "protected": list(self.protected),
            "guests": guests,
            "monitor_samples": self.chaos.suite.samples,
            "violations": [str(v) for v in self.violations],
            "oracle": list(self.oracle_diffs),
            "failed": self.failed,
        }

    def report_json(self) -> str:
        return json.dumps(self.report(), indent=2, sort_keys=True)


class CampaignRunner:
    """Runs seeded chaos campaigns over a three-guest BM-Hive testbed.

    Two of the guests are chaos targets (the generator's default
    ``targets``); the third is a protected bystander no plan may ever
    name. ``extra_monitors`` is a hook for injecting additional (or
    deliberately broken) monitors: a callable receiving the
    :class:`ScenarioContext` and returning monitor instances, invoked
    for the chaos and the baseline scenario alike so both runs stay
    structurally identical.
    """

    def __init__(self, config: Optional[CampaignConfig] = None,
                 scenario: Optional[ScenarioSpec] = None,
                 extra_monitors: Optional[Callable] = None):
        self.config = config or CampaignConfig()
        self.scenario = scenario or ScenarioSpec()
        self.generator = CampaignGenerator(self.config)
        self.extra_monitors = extra_monitors
        if self.scenario.bystander in self.config.targets:
            raise ValueError(
                f"bystander {self.scenario.bystander!r} must not be a "
                f"chaos target {self.config.targets}")

    @property
    def guest_names(self) -> tuple:
        return tuple(self.config.targets) + (self.scenario.bystander,)

    def until_s(self) -> float:
        """Fixed, plan-independent end time — identical final clocks."""
        spec = self.scenario
        return max(spec.n_requests * spec.period_s,
                   self.config.horizon_s) + spec.tail_s

    def run(self, seed: int, plan: Optional[FaultPlan] = None,
            checkpoint: bool = False) -> CampaignOutcome:
        """One full campaign: chaos run, baseline run, oracle verdict.

        With ``checkpoint=True`` each scenario exercises the kernel's
        snapshot/restore protocol before executing: the freshly built
        testbed is drained to parked quiescence at t=0, snapshotted,
        rebuilt from scratch, and restored into the rebuilt testbed —
        then the campaign proceeds normally. The outcome (and its
        byte-stable report) must be identical to a straight-through
        run; the chaos suite asserts exactly that.
        """
        if plan is None:
            plan = self.generator.plan(seed)
        chaos = self._run_scenario(seed, plan, checkpoint=checkpoint)
        baseline = self._run_scenario(seed, FaultPlan.none(),
                                      checkpoint=checkpoint)
        protected = DifferentialOracle.protected_guests(plan, self.guest_names)
        diffs = DifferentialOracle.compare(baseline.loads, chaos.loads,
                                           protected)
        return CampaignOutcome(
            seed=seed, plan=plan, until_s=self.until_s(), chaos=chaos,
            baseline=baseline, protected=protected, oracle_diffs=diffs,
        )

    # -- one scenario --------------------------------------------------
    def _run_scenario(self, seed: int, plan: FaultPlan,
                      checkpoint: bool = False) -> ScenarioContext:
        ctx = self._build_scenario(seed, plan)
        if checkpoint:
            # Drain the just-built testbed to parked quiescence at t=0
            # (poll loops started by load.install() park on their
            # doorbells), snapshot the kernel, rebuild the whole
            # scenario from scratch, park the rebuild the same way, and
            # restore the snapshot into it. From here on the rebuilt
            # scenario must be indistinguishable from the original.
            ctx.sim.run()
            snap = ctx.sim.snapshot()
            ctx = self._build_scenario(seed, plan)
            ctx.sim.run()
            ctx.sim.restore(snap, restore_stats=True)
        self._execute_scenario(ctx)
        return ctx

    def _build_scenario(self, seed: int, plan: FaultPlan) -> ScenarioContext:
        spec = self.scenario
        sim = Simulator(seed=seed)
        server = BmHiveServer(sim, profile=replace(
            HardwareProfile.paper(), topology=spec.topology))
        tracer = Tracer(sim)
        accounting = AvailabilityAccounting(sim, tracer=tracer)
        supervisor = Supervisor(sim, accounting=accounting)
        injector = FaultInjector(sim, plan, accounting=accounting)

        names = self.guest_names
        loads: Dict[str, RingBlkLoad] = {}
        monitors = []
        counters: Dict[str, Callable] = {}
        buckets: Dict[str, object] = {}
        for index, name in enumerate(names):
            guest = server.launch_guest(name=name)
            storage = SpdkStorage(
                sim, server.fabric, server.name,
                media=replace(CLOUD_SSD, name=f"cloud-ssd-{name}"),
            )
            load = RingBlkLoad(
                sim, guest, storage, n_requests=spec.n_requests,
                period_s=spec.period_s,
                offset_s=index * spec.period_s / len(names),
                policy=spec.policy,
            )
            load.install()
            supervisor.watch(guest)
            loads[name] = load
            port = guest.bond.port("blk")
            monitors.append(ExactlyOnceRingMonitor(name, guest.blk_device.vq))
            monitors.append(ShadowSyncMonitor(port))
            counters[f"{name}.board_link"] = port.board_link.counters
            counters[f"{name}.base_link"] = guest.bond.base_link.counters
            counters[f"{name}.dma"] = guest.bond.dma.counters
            for kind in ("pps", "net_bytes", "iops", "storage_bytes"):
                bucket = getattr(guest.limiters, kind)
                if bucket is not None:
                    buckets[f"{name}.{kind}"] = bucket
        monitors.append(ConservationMonitor(counters, buckets))
        monitors.append(AvailabilityMonitor(accounting))
        monitors.append(QuiescenceMonitor(loads))
        if server.fabric.routed:
            network = server.fabric.network
            # Fabric outages share the same availability ledger as
            # every other fault, and both runs (chaos + baseline)
            # police routing convergence and transfer conservation.
            network.accounting = accounting
            monitors.append(RoutingInvariantMonitor(network))
            monitors.append(TransferConservationMonitor(network))

        ctx = ScenarioContext(sim=sim, server=server, loads=loads,
                              supervisor=supervisor, accounting=accounting,
                              injector=injector, tracer=tracer)
        if self.extra_monitors is not None:
            monitors.extend(self.extra_monitors(ctx))
        suite = MonitorSuite(sim, monitors, period_s=spec.monitor_period_s)
        ctx.suite = suite
        return ctx

    def _execute_scenario(self, ctx: ScenarioContext) -> None:
        ctx.injector.arm(ctx.server)
        ctx.suite.start()
        for name, load in ctx.loads.items():
            ctx.sim.spawn(load.run(), name=f"load.{name}")
        ctx.sim.run(until=self.until_s())
        ctx.accounting.finalize()
        ctx.suite.finish()


def sweep_campaign(seed: int, inject_regression: bool = False,
                   shrink_runs: int = 120) -> Dict:
    """One chaos-sweep seed: run the campaign, and shrink it if it fails.

    The payload is the campaign's report entry — extended with the
    shrink summary when the campaign fails — plus the minimized plan
    (JSON, summary, description) to dump as a reproducer.
    ``inject_regression`` installs the deliberately broken
    :class:`~repro.chaos.monitors.RegressionProbeMonitor` to prove the
    failure path end to end.
    """
    extra = None
    if inject_regression:
        extra = lambda ctx: [RegressionProbeMonitor(ctx.injector)]
    runner = CampaignRunner(extra_monitors=extra)
    outcome = runner.run(seed)
    entry = outcome.report()
    minimized_plan = None
    if outcome.failed:
        shrunk = shrink_plan(
            outcome.plan,
            lambda plan: runner.run(seed, plan=plan).failed,
            max_runs=shrink_runs,
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
        "seed": seed,
        "failed": outcome.failed,
        "entry": entry,
        "minimized_plan": minimized_plan,
    }
