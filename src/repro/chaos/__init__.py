"""Chaos campaigns: randomized-but-seeded fault search with invariant monitors.

PR 3 made faults deterministic configuration (:mod:`repro.faults`);
this package turns that determinism into a *search tool*, in the
spirit of LiveStack's continuously-checked full-stack simulations:

* :mod:`repro.chaos.campaign` — samples randomized :class:`~repro.
  faults.spec.FaultPlan` s (kind mix, targets, timing, bursts) from a
  dedicated seeded stream, inside envelopes the recovery datapaths are
  expected to absorb;
* :mod:`repro.chaos.monitors` — invariant monitors on the
  :class:`repro.sim.InvariantMonitor` base that check cross-layer
  properties *during* the run (exactly-once used-ring delivery,
  shadow-vring cursor monotonicity and conservation, PCIe/DMA counter
  sanity, availability-span consistency) plus an end-of-run quiescence
  audit built on :meth:`repro.sim.Simulator.audit`;
* :mod:`repro.chaos.oracle` — a differential oracle comparing guests
  untouched by the plan float-for-float against a fault-free baseline;
* :mod:`repro.chaos.runner` — wires a multi-guest testbed, arms the
  plan, installs the monitors, and emits a byte-stable campaign report;
  :func:`~repro.chaos.runner.sweep_campaign` is one seed of a sweep
  (run, and shrink on failure);
* :mod:`repro.chaos.shrink` — reduces a failing campaign to a minimal
  reproducible :class:`FaultPlan` by greedy delta debugging.

Everything is a pure function of the campaign seed: same seed, same
plan, same fault times, same report bytes.
"""

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
from repro.chaos.runner import (CampaignOutcome, CampaignRunner, ScenarioSpec,
                                sweep_campaign)
from repro.chaos.shrink import ShrinkOutcome, shrink_plan

__all__ = [
    "CampaignConfig",
    "CampaignGenerator",
    "ExactlyOnceRingMonitor",
    "ShadowSyncMonitor",
    "ConservationMonitor",
    "AvailabilityMonitor",
    "QuiescenceMonitor",
    "RegressionProbeMonitor",
    "DifferentialOracle",
    "CampaignRunner",
    "CampaignOutcome",
    "ScenarioSpec",
    "sweep_campaign",
    "shrink_plan",
    "ShrinkOutcome",
]
