"""Seeded campaign generation: random fault plans inside safe envelopes.

A campaign is a :class:`~repro.faults.spec.FaultPlan` drawn from a
dedicated named RNG stream (``chaos.campaign``), so plan generation
never perturbs any stream the simulation itself draws from, and the
same campaign seed always yields the same plan — the whole chaos
pipeline stays replayable from a single integer.

The generator samples *within recoverable envelopes*: every knob range
in :class:`CampaignConfig` is sized so the recovery machinery (request
retry timers, supervisor restart, reconnect backoff) is expected to
absorb the fault without losing requests. A campaign that still trips
an invariant monitor is therefore a real robustness bug, not an
overdriven testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.faults.spec import FaultPlan, FaultSpec
from repro.sim.rng import RandomStreams

__all__ = ["CampaignConfig", "CampaignGenerator", "CHAOS_STREAM",
           "REGION_KIND_WEIGHTS"]

CHAOS_STREAM = "chaos.campaign"

# (kind, weight) — the sampling mix over the fault vocabulary.
# Crashes are down-weighted because each one costs a full supervisor
# recovery (~62 ms) of simulated time; switch crashes likewise drop
# every incident link at once.
DEFAULT_KIND_WEIGHTS = (
    ("pcie_flap", 1.0),
    ("dma_stall", 1.0),
    ("mailbox_timeout", 1.0),
    ("hypervisor_crash", 0.5),
    ("backend_disconnect", 0.75),
    ("brownout", 1.0),
    ("link_flap", 0.75),
    ("switch_crash", 0.4),
)

# Correlated-failure mix for region campaigns (rack power events are
# the rarest and most expensive to remediate; board hangs the
# cheapest). Kept separate from DEFAULT_KIND_WEIGHTS so legacy
# campaign seeds keep drawing the identical plans.
REGION_KIND_WEIGHTS = (
    ("rack_power", 0.5),
    ("tor_down", 0.75),
    ("correlated_board_hang", 1.0),
)


@dataclass(frozen=True)
class CampaignConfig:
    """Envelope bounds for one campaign's fault plan.

    All durations keep each outage well under the workload's retry
    budget (``timeout_s * (max_retries + 1)``, 220 ms with the runner's
    default policy), and ``crash_spacing_s`` keeps successive crashes
    of the same guest outside the supervisor's ~62 ms recovery window
    so every crash is individually recoverable.
    """

    horizon_s: float = 16e-3             # faults land in [0, horizon)
    targets: Tuple[str, ...] = ("g0", "g1")
    backend_targets: Tuple[str, ...] = ("vswitch", "storage")
    # Fabric victims, matched to the runner's 2-rack/2-spine Clos.
    # Every default victim leaves a redundant path through spine-1, so
    # campaigns exercise rerouting without ever partitioning a server —
    # a partition would (correctly) fail guest requests, which is
    # outside the recoverable envelope this generator promises.
    fabric_links: Tuple[str, ...] = ("spine-0|tor-0", "spine-0|storage")
    fabric_switches: Tuple[str, ...] = ("spine-0",)
    # Region victims (correlated-failure campaigns, DESIGN.md §13).
    # Empty by default: region kinds are dropped from the sampling mix
    # unless victims exist, keeping legacy plans byte-identical.
    region_racks: Tuple[str, ...] = ()
    region_tors: Tuple[str, ...] = ()
    region_servers: Tuple[str, ...] = ()
    kind_weights: Tuple[Tuple[str, float], ...] = DEFAULT_KIND_WEIGHTS
    faults_min: int = 2
    faults_max: int = 6
    # Burst clustering: with probability burst_prob, a fault lands
    # within burst_spread_s of the previous one instead of uniformly
    # over the horizon — deliberately provoking overlapping faults.
    burst_prob: float = 0.35
    burst_spread_s: float = 0.5e-3
    # Minimum spacing between hypervisor_crash faults per target.
    crash_spacing_s: float = 80e-3
    # Per-kind duration envelopes (seconds).
    flap_s: Tuple[float, float] = (0.2e-3, 4e-3)
    stall_s: Tuple[float, float] = (0.2e-3, 4e-3)
    mailbox_window_s: Tuple[float, float] = (0.2e-3, 2e-3)
    mailbox_penalty_s: Tuple[float, float] = (5e-6, 50e-6)
    disconnect_s: Tuple[float, float] = (1e-3, 8e-3)
    brownout_s: Tuple[float, float] = (1e-3, 10e-3)
    brownout_factor: Tuple[float, float] = (0.25, 0.9)
    link_flap_s: Tuple[float, float] = (0.2e-3, 3e-3)
    switch_down_s: Tuple[float, float] = (0.5e-3, 4e-3)
    # Region fault envelopes: long enough that remediation (detect →
    # drain → repair) runs end to end, short enough that a quick
    # region run converges before its horizon.
    rack_power_s: Tuple[float, float] = (0.5, 1.5)
    tor_down_s: Tuple[float, float] = (0.3, 1.0)
    board_hang_s: Tuple[float, float] = (0.1, 0.5)

    def __post_init__(self):
        if self.horizon_s <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon_s}")
        if not self.targets:
            raise ValueError("need at least one chaos target")
        if not 0 < self.faults_min <= self.faults_max:
            raise ValueError(
                f"need 0 < faults_min <= faults_max, got "
                f"{self.faults_min}..{self.faults_max}"
            )
        if not all(w >= 0 for _, w in self.kind_weights):
            raise ValueError("kind weights must be non-negative")

    @classmethod
    def region(cls, racks: Tuple[str, ...], tors: Tuple[str, ...],
               servers: Tuple[str, ...], horizon_s: float = 4.0,
               faults_min: int = 1, faults_max: int = 3,
               **overrides) -> "CampaignConfig":
        """A correlated-failure campaign over one region's victims.

        Only region kinds are sampled; the horizon should leave enough
        tail before the region run ends for every remediation ticket to
        close (drain + repair + readmission).
        """
        return cls(
            horizon_s=horizon_s,
            targets=tuple(servers) or ("-",),
            region_racks=tuple(racks),
            region_tors=tuple(tors),
            region_servers=tuple(servers),
            kind_weights=REGION_KIND_WEIGHTS,
            faults_min=faults_min,
            faults_max=faults_max,
            # Bursts cluster correlated faults into overlapping windows
            # (two racks dark at once) — the interesting regime.
            burst_spread_s=0.2,
            **overrides,
        )


class CampaignGenerator:
    """Draws one :class:`FaultPlan` per campaign seed.

    Each call to :meth:`plan` builds a fresh :class:`RandomStreams`
    from the campaign seed, so generation is a pure function of
    ``(config, seed)`` — independent of call order and of every RNG
    the simulation uses.
    """

    def __init__(self, config: CampaignConfig = None):
        self.config = config or CampaignConfig()

    def plan(self, seed: int) -> FaultPlan:
        cfg = self.config
        rng = RandomStreams(seed).get(CHAOS_STREAM)
        n = int(rng.integers(cfg.faults_min, cfg.faults_max + 1))
        # Fabric kinds only make sense with fabric victims configured;
        # dropping targetless kinds *before* any draw keeps generation
        # a pure function of (config, seed).
        usable = [
            (kind, weight) for kind, weight in cfg.kind_weights
            if not (kind == "link_flap" and not cfg.fabric_links)
            and not (kind == "switch_crash" and not cfg.fabric_switches)
            and not (kind == "rack_power" and not cfg.region_racks)
            and not (kind == "tor_down" and not cfg.region_tors)
            and not (kind == "correlated_board_hang"
                     and not cfg.region_servers)
        ]
        kinds = [k for k, _ in usable]
        weights = [w for _, w in usable]
        total = sum(weights)
        faults: List[FaultSpec] = []
        prev_at = 0.0
        for _ in range(n):
            # Weighted kind choice via one uniform draw (stable order).
            pick = float(rng.uniform(0.0, total))
            kind = kinds[-1]
            for candidate, weight in zip(kinds, weights):
                if pick < weight:
                    kind = candidate
                    break
                pick -= weight
            # Timing: uniform over the horizon, or clustered into a
            # burst right after the previous fault.
            if faults and float(rng.uniform()) < cfg.burst_prob:
                at_s = prev_at + float(rng.uniform(0.0, cfg.burst_spread_s))
                at_s = min(at_s, cfg.horizon_s)
            else:
                at_s = float(rng.uniform(0.0, cfg.horizon_s))
            prev_at = at_s
            faults.append(self._spec(rng, kind, at_s))
        faults = self._enforce_crash_spacing(faults)
        return FaultPlan(faults=tuple(sorted(faults, key=lambda f: f.at_s)))

    # -- sampling helpers ----------------------------------------------
    def _spec(self, rng, kind: str, at_s: float) -> FaultSpec:
        cfg = self.config

        def pick_target():
            return cfg.targets[int(rng.integers(0, len(cfg.targets)))]

        def span(lo_hi):
            lo, hi = lo_hi
            return float(rng.uniform(lo, hi))

        if kind == "pcie_flap":
            return FaultSpec(kind=kind, target=pick_target(), at_s=at_s,
                             duration_s=span(cfg.flap_s))
        if kind == "dma_stall":
            return FaultSpec(kind=kind, target=pick_target(), at_s=at_s,
                             duration_s=span(cfg.stall_s))
        if kind == "mailbox_timeout":
            return FaultSpec(kind=kind, target=pick_target(), at_s=at_s,
                             duration_s=span(cfg.mailbox_window_s),
                             param=span(cfg.mailbox_penalty_s))
        if kind == "hypervisor_crash":
            return FaultSpec(kind=kind, target=pick_target(), at_s=at_s)
        if kind == "backend_disconnect":
            backend = cfg.backend_targets[
                int(rng.integers(0, len(cfg.backend_targets)))]
            return FaultSpec(kind=kind, target=backend, at_s=at_s,
                             duration_s=span(cfg.disconnect_s))
        if kind == "brownout":
            return FaultSpec(kind=kind, target=pick_target(), at_s=at_s,
                             duration_s=span(cfg.brownout_s),
                             param=span(cfg.brownout_factor))
        if kind == "link_flap":
            link = cfg.fabric_links[
                int(rng.integers(0, len(cfg.fabric_links)))]
            return FaultSpec(kind=kind, target=link, at_s=at_s,
                             duration_s=span(cfg.link_flap_s))
        if kind == "switch_crash":
            switch = cfg.fabric_switches[
                int(rng.integers(0, len(cfg.fabric_switches)))]
            return FaultSpec(kind=kind, target=switch, at_s=at_s,
                             duration_s=span(cfg.switch_down_s))
        if kind == "rack_power":
            rack = cfg.region_racks[
                int(rng.integers(0, len(cfg.region_racks)))]
            return FaultSpec(kind=kind, target=rack, at_s=at_s,
                             duration_s=span(cfg.rack_power_s))
        if kind == "tor_down":
            tor = cfg.region_tors[
                int(rng.integers(0, len(cfg.region_tors)))]
            return FaultSpec(kind=kind, target=tor, at_s=at_s,
                             duration_s=span(cfg.tor_down_s))
        if kind == "correlated_board_hang":
            victim = cfg.region_servers[
                int(rng.integers(0, len(cfg.region_servers)))]
            return FaultSpec(kind=kind, target=victim, at_s=at_s,
                             duration_s=span(cfg.board_hang_s))
        raise AssertionError(f"unhandled kind {kind!r}")

    def _enforce_crash_spacing(self, faults: List[FaultSpec]) -> List[FaultSpec]:
        """Drop crashes that land inside a prior crash's recovery window.

        A second crash of the same guest before the supervisor finished
        restarting it is absorbed by the idempotent crash path anyway,
        but crashes spaced closer than the recovery budget would push a
        request past its retry budget — outside the recoverable
        envelope this generator promises. Dropping (rather than
        shifting) keeps every surviving fault's draw untouched.
        """
        last_crash: dict = {}
        kept: List[FaultSpec] = []
        for fault in sorted(faults, key=lambda f: f.at_s):
            if fault.kind == "hypervisor_crash":
                prev = last_crash.get(fault.target)
                if prev is not None and \
                        fault.at_s - prev < self.config.crash_spacing_s:
                    continue
                last_crash[fault.target] = fault.at_s
            kept.append(fault)
        return kept
