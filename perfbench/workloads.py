"""The benchmark's three workloads.

Each workload builds its inputs from ``(seed, episode)`` in
:meth:`setup`, runs them in :meth:`run` (the timed phase) and checks
the outputs in :meth:`check`, which returns an :class:`Episode`: ops
attempted, ops that broke a check, a fingerprint of every simulated
output, the simulated outcome metrics and the counters the traced run
turns into per-layer metrics.

* ``ring_io`` drives the Fig 6 datapath: closed-loop virtio-blk reads
  from every bm-guest of a booted, routed testbed.
* ``region_churn`` drives the control plane's placement hot path:
  a 16k-board region under open-loop Poisson churn, array ledger.
* ``region_failover`` drives the same control plane through faults:
  a Clos region with probes, monitors and a seeded fault schedule.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench.layers import quantile

__all__ = ["Episode", "WORKLOADS", "RingIo", "RegionChurn", "RegionFailover"]


@dataclass
class Episode:
    """One checked episode of a workload."""

    ops: int
    errors: int
    fingerprint: str
    outcome: Dict[str, float]
    counters: Dict = field(default_factory=dict)
    details: Dict = field(default_factory=dict)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sim_seed(seed: int, episode: int) -> int:
    """Simulator root seed of one episode (distinct per seed/episode)."""
    return seed * 100_003 + episode


def _kernel_counters(sim, before: Dict[str, int]) -> Dict[str, int]:
    """Kernel counter deltas since ``before`` (a ``stats.as_dict()``)."""
    now = sim.stats.as_dict()
    return {
        "events": now["events_popped"] - before["events_popped"],
        "fast_path_hits": now["fast_path_hits"] - before["fast_path_hits"],
        "queue_len_sum": now["queue_len_sum"] - before["queue_len_sum"],
        "queue_len_max": now["queue_len_max"],
        "doorbell_parks": now["doorbell_parks"] - before["doorbell_parks"],
    }


# ---------------------------------------------------------------------------
# ring_io: the Fig 6 datapath
# ---------------------------------------------------------------------------

#: Per-request checkpoints on the simulated clock, in path order. The
#: segment between two consecutive checkpoints is named after the
#: later one's stage (see ``SEGMENTS``).
MARKS = ("t_post", "t_kick", "t_kicked", "t_publish", "t_handler",
         "t_backend", "t_used", "t_reaped")
SEGMENTS = ("guest_post", "pci_notify", "iobond_sync", "hypervisor_wait",
            "backend", "iobond_deliver", "guest_poll")


class Request:
    """One guest block read and its checkpoints."""

    __slots__ = ("rid", "guest", "sector", "nbytes", "chain") + MARKS

    def __init__(self, rid, guest, sector, nbytes):
        self.rid = rid
        self.guest = guest
        self.sector = sector
        self.nbytes = nbytes
        self.chain = None
        for mark in MARKS:
            setattr(self, mark, None)

    @property
    def latency(self) -> float:
        return self.t_reaped - self.t_post

    def segments(self) -> List[float]:
        """Per-stage simulated time; sums exactly to :attr:`latency`.

        Checkpoints are clamped to be non-decreasing: a request can be
        published by an IO-Bond sync that an *earlier* kick started,
        before its own notify write has finished; the overlap is then
        credited to the notify and the sync segment reads 0.
        """
        marks = []
        last = self.t_post
        for name in MARKS:
            last = max(last, getattr(self, name))
            marks.append(last)
        return [b - a for a, b in zip(marks, marks[1:])]


class RingRun:
    """Everything one ``ring_io`` episode builds and records."""

    def __init__(self, bed, image, reads, tracer):
        self.bed = bed
        self.image = image
        self.reads = reads                # per guest: [(sector, nbytes)]
        self.tracer = tracer
        self.requests: List[Request] = []
        self.inflight: Dict[tuple, Request] = {}   # (id(vq), head)
        self.staged: Dict[int, list] = {}          # id(shadow) -> heads
        self.errors = 0
        self.kernel_before: Dict[str, int] = {}
        self.reroutes_before = 0


class RingIo:
    """Closed-loop virtio-blk reads through IO-Bond on a routed testbed."""

    name = "ring_io"
    why = ("Fig 6 datapath: closed-loop virtio-blk reads through IO-Bond, "
           "the bm-hypervisor loop, SPDK and the Clos fabric; control "
           "plane untouched")
    SERVERS = 4
    GUESTS_PER_SERVER = 2
    DEPTH = 4
    READS_PER_GUEST = 160
    SIZES_KIB = (4, 16, 64)

    def __init__(self, reads_per_guest: Optional[int] = None):
        if reads_per_guest is not None:
            self.READS_PER_GUEST = reads_per_guest

    def setup(self, seed: int, episode: int, tracer=None) -> RingRun:
        from repro.experiments.common import TestbedBuilder, boot_testbed
        from repro.fabric.topology import TopologySpec
        from repro.virtio.blk import SECTOR_BYTES

        if tracer is not None:
            tracer.allocs.clear()
            tracer.context = None
        bed = (TestbedBuilder()
               .seed(_sim_seed(seed, episode))
               .servers(self.SERVERS)
               .guests_per_server(self.GUESTS_PER_SERVER)
               .topology(TopologySpec.clos(n_racks=2, n_spines=2))
               .build())
        if tracer is not None:
            tracer.sim = bed.sim
        boot_testbed(bed)
        guests = bed.bm_guests
        image = guests[0].image
        rng = np.random.default_rng([seed, episode, 1])
        sizes = np.array(self.SIZES_KIB) * 1024
        reads = []
        for guest in guests:
            nbytes = rng.choice(sizes, size=self.READS_PER_GUEST)
            last = min(guest.blk_device.capacity_sectors,
                       image.size_sectors) - max(sizes) // SECTOR_BYTES
            sectors = rng.integers(0, last, size=self.READS_PER_GUEST)
            reads.append([(int(s), int(n)) for s, n in zip(sectors, nbytes)])
        run = RingRun(bed, image, reads, tracer)
        run.kernel_before = bed.sim.stats.as_dict()
        run.reroutes_before = bed.hive.fabric.network.reroutes
        if tracer is not None:
            tracer.context = run
        return run

    def run(self, run: RingRun) -> None:
        sim = run.bed.sim
        for index, guest in enumerate(run.bed.bm_guests):
            sim.spawn(self._guest_loop(run, guest, run.reads[index]),
                      name=f"bench.{guest.name}")
        sim.run()

    def _guest_loop(self, run: RingRun, guest, reads):
        """Process: keep ``DEPTH`` reads outstanding until all complete."""
        from repro.sim.doorbell import Doorbell
        from repro.virtio.blk import SECTOR_BYTES, VIRTIO_BLK_S_OK

        sim = run.bed.sim
        blk = guest.blk_device
        vq = blk.queue(0)
        bond = guest.bond
        port = bond.port("blk")
        image = run.image
        key = id(vq)
        inflight = run.inflight
        # The guest polls its used ring on the firmware cadence; the
        # doorbell makes that poll free while nothing is pending.
        bell = Doorbell(sim, run.bed.profile.poll.firmware_used_poll_s)

        def on_used():
            head = vq.used_ring[-1][0]
            request = inflight.get((key, head))
            if request is not None:
                request.t_used = sim.now
            bell.ring()

        vq.on_used = on_used
        posted = completed = 0
        while completed < len(reads):
            while posted < len(reads) and posted - completed < self.DEPTH:
                sector, nbytes = reads[posted]
                request = Request(len(run.requests), guest.name, sector, nbytes)
                run.requests.append(request)
                request.t_post = sim.now
                head = blk.driver_read(sector, nbytes, queue_index=0)
                request.chain = vq.resolve_chain(head)
                inflight[(key, head)] = request
                request.t_kick = sim.now
                yield from bond.guest_pci_access(port, "queue_notify", 0)
                request.t_kicked = sim.now
                posted += 1
            used = vq.get_used()
            if used is None:
                yield bell.park()
                continue
            head, written = used
            request = inflight.pop((key, head), None)
            if request is None:
                run.errors += 1          # completion nobody is waiting for
                continue
            request.t_reaped = sim.now
            completed += 1
            (data_addr, data_len), (status_addr, _) = request.chain.writable
            data = blk.memory.read(data_addr, data_len)
            status = blk.memory.read(status_addr, 1)[0]
            expected = b"".join(
                image.read_sector(request.sector + i)
                for i in range(request.nbytes // SECTOR_BYTES))
            if (written != request.nbytes + 1 or status != VIRTIO_BLK_S_OK
                    or data != expected):
                run.errors += 1
        bell.cancel()
        vq.on_used = None

    def check(self, run: RingRun) -> Episode:
        bed = run.bed
        requests = run.requests
        errors = run.errors
        expected = sum(len(reads) for reads in run.reads)
        # Exactly once: every posted read was reaped, none is left over.
        missing = sum(1 for r in requests if r.t_reaped is None)
        errors += missing + len(run.inflight) + (expected - len(requests))
        for guest in bed.bm_guests:
            for shadow in guest.bond.port("blk").shadows.values():
                audit = shadow.conservation()
                if (audit["balance"] or audit["queued"] or audit["inflight"]
                        or audit["completions_pending"]):
                    errors += 1
        done = [r for r in requests if r.t_reaped is not None]
        latencies = [r.latency for r in done]
        start = min((r.t_post for r in done), default=0.0)
        end = max((r.t_reaped for r in done), default=0.0)
        outcome = {
            "sim_io_p50_us": quantile(latencies, 0.50) * 1e6,
            "sim_io_p99_us": quantile(latencies, 0.99) * 1e6,
            "sim_iops": len(done) / (end - start) if end > start else 0.0,
        }
        fingerprint = _digest([[r.guest, r.rid, r.sector, r.nbytes,
                                repr(r.t_post), repr(r.t_reaped)]
                               for r in requests])
        counters = dict(_kernel_counters(bed.sim, run.kernel_before))
        counters["requests"] = len(done)
        counters["reroutes"] = (bed.hive.fabric.network.reroutes
                                - run.reroutes_before)
        details = {"requests": len(requests), "latencies_s": latencies}
        if run.tracer is not None:
            errors += self._trace_check(run, done, counters, details)
        return Episode(ops=expected, errors=min(errors, expected),
                       fingerprint=fingerprint, outcome=outcome,
                       counters=counters, details=details)

    @staticmethod
    def _trace_check(run: RingRun, done, counters, details) -> int:
        """Per-request segments: every checkpoint seen, sum == latency."""
        errors = 0
        sums = [0.0] * len(SEGMENTS)
        totals, waits = [], []
        for request in done:
            if any(getattr(request, mark) is None for mark in MARKS):
                errors += 1
                continue
            segments = request.segments()
            totals.append(sum(segments))
            if abs(totals[-1] - request.latency) > 1e-12:
                errors += 1
            for i, value in enumerate(segments):
                sums[i] += value
            waits.append(request.t_handler - request.t_publish)
        counters["hv_wait_s"] = waits
        counters["mem_regions"] = max(run.tracer.allocs.values(), default=0)
        details["segments_mean_sim_us"] = {
            name: total / len(done) * 1e6 if done else 0.0
            for name, total in zip(SEGMENTS, sums)}
        details["segment_sums_s"] = totals
        return errors

    # -- tracer hooks (per-request checkpoints at layer boundaries) ---------
    @staticmethod
    def hooks(tracer) -> Dict[str, Callable]:
        def staged(args, result):
            shadow = args[0]
            count = result[0]
            if count and tracer.context is not None:
                last = shadow.guest_vq.cursors()["last_avail"]
                tracer.context.staged.setdefault(id(shadow), []).extend(
                    shadow.guest_vq.avail_ring[last - count:last])

        def published(args, _result):
            shadow, count = args[0], args[1]
            run = tracer.context
            if run is None:
                return
            fifo = run.staged.get(id(shadow), [])
            heads, fifo[:count] = fifo[:count], []
            key = id(shadow.guest_vq)
            for head in heads:
                request = run.inflight.get((key, head))
                if request is not None and request.t_publish is None:
                    request.t_publish = run.bed.sim.now

        def handler_made(args, handler):
            guest, queue_index = args[1], args[3] if len(args) > 3 else 0
            key = id(guest.blk_device.queue(queue_index))

            def traced_handler(entry):
                run = tracer.context
                request = None if run is None else run.inflight.get(
                    (key, entry.guest_head))
                rid = None
                if request is not None:
                    request.t_handler = run.bed.sim.now
                    rid = request.rid
                return tracer.generator(handler(entry), "hypervisor:service",
                                        req=rid)

            return traced_handler

        def submitted(_args, _result, span):
            if span.req is not None and tracer.context is not None:
                tracer.context.requests[span.req].t_backend = span.sim_end

        return {"iobond:stage": staged, "iobond:publish": published,
                "hypervisor:make_handler": handler_made,
                "backend:submit": submitted}


# ---------------------------------------------------------------------------
# region_churn: the placement hot path
# ---------------------------------------------------------------------------

class RegionChurn:
    """Open-loop Poisson churn through a 16k-board region (array ledger)."""

    name = "region_churn"
    why = ("control-plane placement hot path: Poisson churn through "
           "admission, place_board/release_board and the vectorized churn "
           "engine at 16k boards; datapath untouched")
    RACKS = 64
    SERVERS_PER_RACK = 16
    BOARDS_PER_SERVER = 16
    DURATION_S = 11.0
    OCCUPANCY = 0.8
    MEAN_LIFETIME_S = 2.0

    def __init__(self, racks: Optional[int] = None,
                 duration_s: Optional[float] = None):
        if racks is not None:
            self.RACKS = racks
        if duration_s is not None:
            self.DURATION_S = duration_s

    def spec(self):
        from repro.cloud.admission import AdmissionPolicy
        from repro.fleet import RegionSpec

        boards = self.RACKS * self.SERVERS_PER_RACK * self.BOARDS_PER_SERVER
        return RegionSpec(
            n_racks=self.RACKS,
            servers_per_rack=self.SERVERS_PER_RACK,
            boards_per_server=self.BOARDS_PER_SERVER,
            duration_s=self.DURATION_S,
            arrival_rate_per_s=self.OCCUPANCY * boards / self.MEAN_LIFETIME_S,
            mean_lifetime_s=self.MEAN_LIFETIME_S,
            fabric=False,
            # As in RegionShardJob: the per-tier front-door buckets must
            # not throttle region-sized arrival rates.
            admission=AdmissionPolicy(
                limits=(("premium", 1e9, 1e9), ("standard", 1e9, 1e9),
                        ("best_effort", 1e9, 1e9)),
                shed_at=(("best_effort", 0.05),)),
        )

    def setup(self, seed: int, episode: int, tracer=None):
        from repro.fleet import ChurnPlan, Region, VectorizedChurnEngine
        from repro.sim import Simulator

        spec = self.spec()
        sim = Simulator(seed=_sim_seed(seed, episode))
        if tracer is not None:
            tracer.sim = sim
        region = Region(sim, spec)
        plan = ChurnPlan.sample(
            np.random.default_rng([seed, episode, 2]),
            arrival_rate_per_s=spec.arrival_rate_per_s,
            mean_lifetime_s=spec.mean_lifetime_s,
            tier_mix=spec.tier_mix,
            duration_s=spec.duration_s)
        region.start(probes=False, arrivals=False)
        VectorizedChurnEngine(region, plan, guests="arrays").start()
        return {"sim": sim, "region": region, "plan": plan,
                "kernel_before": sim.stats.as_dict()}

    def run(self, state) -> None:
        state["sim"].run(until=self.DURATION_S)

    def check(self, state) -> Episode:
        region = state["region"]
        region.finalize()
        ops = len(state["plan"])
        placed = sum(region.placed.values())
        ok = (_holds(region.scheduler.verify_index)
              and _holds(region.audit.verify)
              and placed == region.exits + region.running_guests())
        report = region.report()
        counters = dict(_kernel_counters(state["sim"], state["kernel_before"]))
        return Episode(
            ops=ops, errors=0 if ok else ops, fingerprint=_digest(report),
            outcome={}, counters=counters,
            details={"placed": placed, "exits": region.exits,
                     "shed": sum(region.shed.values()),
                     "capacity_rejections":
                         sum(region.capacity_rejections.values())})

    @staticmethod
    def hooks(tracer) -> Dict[str, Callable]:
        return {}


def _holds(check: Callable[[], bool]) -> bool:
    """Run a verifier that returns True or raises on a violation."""
    try:
        return bool(check())
    except Exception:  # noqa: BLE001 - any raise is a failed check
        return False


# ---------------------------------------------------------------------------
# region_failover: the control plane under correlated faults
# ---------------------------------------------------------------------------

class RegionFailover:
    """Object-guest churn on a Clos region through three seeded faults."""

    name = "region_failover"
    why = ("control plane under faults: probes, quarantine, drain "
           "migrations, remediation, audit and route recomputes on a Clos "
           "region with a seeded fault schedule")
    RACKS = 8
    SERVERS_PER_RACK = 4
    BOARDS_PER_SERVER = 8
    DURATION_S = 16.0
    OCCUPANCY = 0.85
    MEAN_LIFETIME_S = 2.5
    MONITOR_PERIOD_S = 50e-3
    # Fault i lands in [FIRST + i*SPACING, FIRST + i*SPACING + JITTER):
    # disjoint windows, each incident closed well before the run ends.
    FAULT_FIRST_S = 2.0
    FAULT_SPACING_S = 4.0
    FAULT_JITTER_S = 1.0
    FAULT_DURATIONS_S = {"rack_power": (0.5, 1.5), "tor_down": (0.3, 1.0),
                         "correlated_board_hang": (0.1, 0.5)}

    def spec(self):
        from repro.fleet import RegionSpec

        boards = self.RACKS * self.SERVERS_PER_RACK * self.BOARDS_PER_SERVER
        return RegionSpec(
            n_racks=self.RACKS,
            servers_per_rack=self.SERVERS_PER_RACK,
            boards_per_server=self.BOARDS_PER_SERVER,
            duration_s=self.DURATION_S,
            arrival_rate_per_s=self.OCCUPANCY * boards / self.MEAN_LIFETIME_S,
            mean_lifetime_s=self.MEAN_LIFETIME_S)

    def fault_plan(self, rng):
        """One fault of each region kind, on three distinct racks."""
        from repro.faults.spec import FaultPlan, FaultSpec

        kinds = list(rng.permutation(sorted(self.FAULT_DURATIONS_S)))
        racks = rng.choice(self.RACKS, size=len(kinds), replace=False)
        faults = []
        for i, (kind, rack) in enumerate(zip(kinds, racks)):
            at_s = (self.FAULT_FIRST_S + i * self.FAULT_SPACING_S
                    + float(rng.uniform(0.0, self.FAULT_JITTER_S)))
            low, high = self.FAULT_DURATIONS_S[kind]
            duration = float(rng.uniform(low, high))
            if kind == "rack_power":
                target = f"rack-{rack}"
            elif kind == "tor_down":
                target = f"tor-{rack}"
            else:
                server = int(rng.integers(self.SERVERS_PER_RACK))
                target = f"r{rack}-s{server}"
            faults.append(FaultSpec(kind=str(kind), target=target,
                                    at_s=at_s, duration_s=duration))
        return FaultPlan.of(*faults)

    def setup(self, seed: int, episode: int, tracer=None):
        from repro.chaos.monitors import MonitorSuite
        from repro.fleet import Region
        from repro.fleet.monitors import region_monitors
        from repro.sim import Simulator

        spec = self.spec()
        sim = Simulator(seed=_sim_seed(seed, episode))
        if tracer is not None:
            tracer.sim = sim
        region = Region(sim, spec)
        if tracer is not None:
            region.pipeline.drainer = tracer.generator_function(
                region.pipeline.drainer, "fleet.region:drain")
        plan = self.fault_plan(np.random.default_rng([seed, episode, 3]))
        suite = MonitorSuite(sim, region_monitors(region),
                             period_s=self.MONITOR_PERIOD_S)
        suite.start()
        region.start()
        region.arm_plan(plan)
        return {"sim": sim, "region": region, "suite": suite, "plan": plan,
                "kernel_before": sim.stats.as_dict(),
                "reroutes_before": region.network.reroutes}

    def run(self, state) -> None:
        state["sim"].run(until=self.DURATION_S)

    def check(self, state) -> Episode:
        region = state["region"]
        suite = state["suite"]
        region.finalize()
        suite.finish()
        ops = sum(region.arrivals.values())
        tickets = region.pipeline.tickets
        ok = (suite.ok
              and region.placements_on_quarantined == 0
              and region.double_migrations == 0
              and all(ticket.closed for ticket in tickets)
              and not region.pipeline.open_tickets
              and _holds(region.audit.verify))
        report = region.report()
        premium = region.tier_stats("premium")["availability"]
        remediation = region.remediation_latencies_s
        counters = dict(_kernel_counters(state["sim"], state["kernel_before"]))
        counters.update(
            reroutes=region.network.reroutes - state["reroutes_before"],
            migrations=region.migrations,
            tickets=len(tickets))
        return Episode(
            ops=ops, errors=0 if ok else ops, fingerprint=_digest(report),
            outcome={
                "sim_premium_avail_pct": premium * 100.0,
                "sim_remediate_p50_ms":
                    quantile(remediation, 0.50) * 1e3,
            },
            counters=counters,
            details={"placed": sum(region.placed.values()),
                     "migrations": region.migrations,
                     "tickets": len(tickets),
                     "drain_failures": region.drain_failures,
                     "violations": [str(v) for v in suite.violations],
                     "faults": state["plan"].to_dict()})

    @staticmethod
    def hooks(tracer) -> Dict[str, Callable]:
        return {}


WORKLOADS = {w.name: w for w in (RingIo, RegionChurn, RegionFailover)}
