"""Vectorized tenant churn for region-scale simulation (DESIGN.md §14).

The region drill's default arrival loop is one Python process per
guest: draw a gap, sleep, admit, place, spawn a lifetime process. At a
few hundred guests that is the right shape — every control-plane path
runs in its natural event-driven form — but a million guest-lifetimes
would mean a million generators and two million kernel events of pure
bookkeeping. This module replaces the *mechanics* without changing the
*semantics*:

* :class:`ChurnPlan` draws every arrival gap, tier pick, and lifetime
  up front as numpy batches from the same calibrated Table-2/Fig-1
  shaped distributions on the same ``region.arrivals`` stream. The
  plan is the canonical draw order, so any executor that consumes it
  sees identical randomness by construction.
* :class:`VectorizedChurnEngine` merges arrivals and exits into one
  time-sorted event stream, cuts it into time buckets, schedules a
  single bare wakeup per bucket through
  :meth:`~repro.sim.core.Simulator.schedule_batch` (the bulk
  ``push_batch`` path), and processes each bucket in a tight loop.
  While inside a bucket it sets ``sim._now`` to each event's exact
  timestamp (all ≤ the bucket bound, restoring the bound afterwards),
  so token-bucket refills, audit timestamps, and guest placement times
  are *bit-identical* to a one-event-per-arrival replay of the plan.
  That replay — the scalar reference engine — lives with the tests
  (``tests/fleet/scalar_churn.py``), and ``tests/fleet/test_churn.py``
  asserts byte-equal ``Region.report()`` against it.

Tie-breaking: events are ordered by ``(time, kind)`` with arrivals
before exits, stably by index within a kind. The scalar reference's
order for *exactly equal* float timestamps of different guests depends
on push history; with continuous exponential draws such collisions
have measure zero, and the vectorized rule is the deterministic choice
that also handles the degenerate zero-lifetime draw (a guest must
arrive before it can exit).

Guests live in a :class:`GuestArrayLedger` — struct-of-arrays state,
string-free ``place_board``/``release_board`` scheduler calls — for
fault-free scale runs where per-guest Python objects would dominate
memory. Fault drills use the region's own arrival loop, which keeps
real :class:`~repro.fleet.region.RegionGuest` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cloud.admission import TIERS, AdmissionRejected
from repro.cloud.scheduler import CapacityError
from repro.fleet.region import ARRIVAL_STREAM, Region
from repro.hypervisor.health import BoardHealth

__all__ = [
    "ChurnPlan",
    "VectorizedChurnEngine",
    "GuestArrayLedger",
]

#: Draw granularity for :meth:`ChurnPlan.sample`. The chunk size is
#: part of the plan's identity — it fixes how the RNG bitstream is cut
#: into batch draws — so it is a module constant, not a knob.
CHUNK = 4096


@dataclass(frozen=True, eq=False)
class ChurnPlan:
    """Pre-drawn churn: every arrival's gap, absolute time, tier, lifetime.

    ``arrival_s`` is the exact left-fold cumulative sum of ``gap_s``
    (``np.cumsum`` accumulates sequentially), which matches the float
    value the kernel clock reaches when a scalar replay sleeps the
    same gaps one ``timeout`` at a time — the foundation of the
    scalar ≡ vectorized bit-equivalence.
    """

    gap_s: np.ndarray       # float64, inter-arrival gaps
    arrival_s: np.ndarray   # float64, cumsum(gap_s), all <= duration_s
    tier_idx: np.ndarray    # int8 index into TIERS
    lifetime_s: np.ndarray  # float64
    duration_s: float

    def __len__(self) -> int:
        return len(self.gap_s)

    @classmethod
    def sample(cls, rng, *, arrival_rate_per_s: float,
               mean_lifetime_s: float, tier_mix, duration_s: float) -> "ChurnPlan":
        """Draw a plan from ``rng`` in fixed-size chunks.

        Per chunk the draw order is gaps, tier picks, lifetimes — three
        vectorized calls — repeated until the cumulative arrival time
        passes ``duration_s``, then trimmed to arrivals inside the run.
        """
        if arrival_rate_per_s <= 0:
            raise ValueError(
                f"arrival rate must be positive, got {arrival_rate_per_s}")
        if duration_s < 0:
            raise ValueError(f"duration must be >= 0, got {duration_s}")
        scale = 1.0 / arrival_rate_per_s
        gap_chunks: List[np.ndarray] = []
        pick_chunks: List[np.ndarray] = []
        life_chunks: List[np.ndarray] = []
        approx = 0.0

        def draw_chunk():
            nonlocal approx
            g = rng.exponential(scale, size=CHUNK)
            gap_chunks.append(g)
            pick_chunks.append(rng.uniform(size=CHUNK))
            life_chunks.append(rng.exponential(mean_lifetime_s, size=CHUNK))
            approx += float(g.sum())

        draw_chunk()
        while approx <= duration_s:
            draw_chunk()
        gaps = np.concatenate(gap_chunks)
        arrival = np.cumsum(gaps)
        # g.sum() above is pairwise (an estimate); the left-fold cumsum
        # is the truth. Top up in the rare case the estimate overshot.
        while arrival[-1] <= duration_s:
            draw_chunk()
            gaps = np.concatenate(gap_chunks)
            arrival = np.cumsum(gaps)
        m = int(np.searchsorted(arrival, duration_s, side="right"))
        picks = np.concatenate(pick_chunks)[:m]
        edges = np.cumsum(np.array([w for _, w in tier_mix], dtype=np.float64))
        # searchsorted-right == the scalar "first edge with pick < edge"
        # scan (strict <, default to the last tier): both count edges
        # <= pick. Clip guards float edge sums a hair under 1.0.
        tier_idx = np.minimum(
            np.searchsorted(edges, picks, side="right"),
            len(edges) - 1).astype(np.int8)
        return cls(
            gap_s=gaps[:m],
            arrival_s=arrival[:m],
            tier_idx=tier_idx,
            lifetime_s=np.concatenate(life_chunks)[:m],
            duration_s=float(duration_s),
        )

    @classmethod
    def for_region(cls, region: Region) -> "ChurnPlan":
        """Sample a plan from the region's spec on its arrival stream."""
        s = region.spec
        return cls.sample(
            region.sim.streams.get(ARRIVAL_STREAM),
            arrival_rate_per_s=s.arrival_rate_per_s,
            mean_lifetime_s=s.mean_lifetime_s,
            tier_mix=s.tier_mix,
            duration_s=s.duration_s,
        )


class GuestArrayLedger:
    """Struct-of-arrays guest population for fault-free scale runs.

    One row per plan arrival: ``state`` (0 = never placed, 1 = running,
    2 = exited), the hosting server's scheduler registration index, and
    views of the plan's arrival/exit times. Replaces ``RegionGuest``
    objects, guest-id strings, and ``Placement`` records — at a million
    lifetimes those are hundreds of MB of pure bookkeeping.
    """

    NONE, RUNNING, EXITED = 0, 1, 2

    def __init__(self, plan: ChurnPlan):
        n = len(plan)
        self.state = np.zeros(n, dtype=np.int8)
        self.server = np.full(n, -1, dtype=np.int32)
        self.tier_idx = plan.tier_idx
        self.placed_s = plan.arrival_s
        self.exit_s = plan.arrival_s + plan.lifetime_s

    def running_count(self) -> int:
        return int((self.state == self.RUNNING).sum())

    def placed_count(self) -> int:
        return int((self.state != self.NONE).sum())

    def tier_stats(self, tier: str, now: float) -> Dict[str, float]:
        """Mirror of ``Region.tier_stats`` over the arrays.

        Windows are summed with a left-fold (``np.cumsum``) in arrival
        order — the same order and float association as
        ``Region.tier_stats``'s ``total += window`` over gid-sorted
        guests, so the two agree bit-for-bit. Array guests never accrue
        downtime (the ledger refuses faulted placements), so downtime
        is identically zero, as it is for region guests in a fault-free
        run.
        """
        rank = TIERS.index(tier)
        mask = (self.state != self.NONE) & (self.tier_idx == rank)
        placed = self.placed_s[mask]
        ended = np.where(self.state[mask] == self.EXITED,
                         self.exit_s[mask], now)
        windows = np.maximum(0.0, ended - placed)
        windows = windows[windows > 0]
        n = len(windows)
        total = float(np.cumsum(windows)[-1]) if n else 0.0
        return {
            "guests": float(n),
            "guest_seconds": total,
            "downtime_s": 0.0,
            "availability": 1.0,
        }


class VectorizedChurnEngine:
    """Batched executor: one kernel wakeup per time bucket.

    Builds the merged arrival/exit stream from the plan, schedules one
    bare event per ``batch_s``-wide bucket via ``schedule_batch``, and
    replays each bucket's slice synchronously inside the wakeup —
    rewinding ``sim._now`` to each event's exact timestamp so every
    time-dependent component (token buckets, audit chain, placement
    stamps) observes the scalar clock. ``batch_s`` is therefore pure
    mechanics: any value yields the same report.
    """

    def __init__(self, region: Region, plan: ChurnPlan,
                 batch_s: Optional[float] = None, guests: str = "arrays"):
        # One guest representation; the keyword stays because perfbench's
        # region_churn workload passes guests="arrays".
        if guests != "arrays":
            raise ValueError(f"guests must be 'arrays', got {guests!r}")
        self.region = region
        self.plan = plan
        T = plan.duration_s
        if batch_s is None:
            batch_s = max(T / 64.0, 1e-9)
        if batch_s <= 0:
            raise ValueError(f"batch_s must be positive, got {batch_s}")
        self.batch_s = float(batch_s)

        n = len(plan)
        exit_s = plan.arrival_s + plan.lifetime_s
        times = np.concatenate([plan.arrival_s, exit_s])
        # kind 0 = arrival, 1 = exit: arrivals sort first on equal
        # timestamps (a zero-lifetime guest must arrive before exiting).
        kinds = np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)])
        idxs = np.concatenate([np.arange(n, dtype=np.int64)] * 2)
        keep = times <= T
        times, kinds, idxs = times[keep], kinds[keep], idxs[keep]
        order = np.lexsort((kinds, times))
        self._ev_time = times[order]
        self._ev_kind = kinds[order]
        self._ev_idx = idxs[order]
        if len(self._ev_time):
            bounds = np.minimum(
                np.ceil(self._ev_time / self.batch_s) * self.batch_s, T)
            self._bounds = np.unique(bounds)
        else:
            self._bounds = np.zeros(0, dtype=np.float64)

        self.ledger = GuestArrayLedger(plan)
        region.guest_ledger = self.ledger
        self._tenants = tuple(
            f"t{k:03d}" for k in range(region.spec.n_tenants))

    def start(self) -> None:
        """Schedule every bucket wakeup in bulk and spawn the driver."""
        sim = self.region.sim
        self._events = [sim.event() for _ in range(len(self._bounds))]
        sim.schedule_batch(self._bounds, self._events)
        sim.spawn(self._driver(), name="region.churn.vectorized")

    def _driver(self):
        sim = self.region.sim
        ev_time = self._ev_time
        start = 0
        for bound, wakeup in zip(self._bounds, self._events):
            yield wakeup
            end = int(np.searchsorted(ev_time, bound, side="right"))
            self._process(start, end, float(bound))
            start = end

    def _process(self, start: int, end: int, bound: float) -> None:
        region = self.region
        sim = region.sim
        ev_time = self._ev_time
        ev_kind = self._ev_kind
        ev_idx = self._ev_idx
        last = bound
        for k in range(start, end):
            last = ev_time[k]
            sim._now = last
            i = int(ev_idx[k])
            if ev_kind[k] == 0:
                self._arrive(i)
            else:
                self._exit(i)
        # Restore the wakeup bound (>= every slice timestamp up to
        # float rounding of the bucket grid; max() covers that edge).
        sim._now = max(bound, last)

    def _arrive(self, i: int) -> None:
        region = self.region
        plan = self.plan
        tier = TIERS[plan.tier_idx[i]]
        region.arrivals[tier] += 1
        tenant = self._tenants[i % len(self._tenants)]
        try:
            region.admission.admit(tier, tenant=tenant)
        except AdmissionRejected as exc:
            key = (tier, exc.reason)
            region.shed[key] = region.shed.get(key, 0) + 1
            return
        try:
            reg_idx = region.scheduler.place_board()
        except CapacityError:
            region.capacity_rejections[tier] += 1
            return
        name = region.scheduler.server_name(reg_idx)
        if not region._server_up[name] or \
                region._board_health[name] is not BoardHealth.HEALTHY:
            raise RuntimeError(
                "the churn engine does not support placements on faulted "
                "servers (no per-guest accounting rows); run fault plans "
                "through the region's own arrival loop")
        ledger = self.ledger
        ledger.state[i] = GuestArrayLedger.RUNNING
        ledger.server[i] = reg_idx
        region.placed[tier] += 1

    def _exit(self, i: int) -> None:
        ledger = self.ledger
        if ledger.state[i] != GuestArrayLedger.RUNNING:
            return
        ledger.state[i] = GuestArrayLedger.EXITED
        self.region.scheduler.release_board(int(ledger.server[i]))
        self.region.exits += 1
