"""Which public layer calls the traced run wraps, and the per-layer metrics.

Layers are the ``repro`` packages the workloads reach. Each entry of
:func:`_patches` wraps one public method as ``layer:op``; spawned
processes are attributed to a layer by name prefix (:data:`PROCESSES`),
so the kernel's own self time is what remains of ``Simulator.run``
after every layer frame inside it is taken out.

:data:`CATALOG` is the per-layer metric list ``BENCHMARK.json`` names,
with unit and direction. Times on the simulated clock carry ``sim_``
units (``sim_us``, ``sim_ms``); every other time is host time. A layer
a workload does not reach reports 0 for its metrics.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Optional

from perfbench.spans import Tracer

__all__ = ["CATALOG", "install", "layer_metrics", "quantile",
           "catalog_units", "new_aggregate", "add_counters"]

#: (name, unit, better) for every per-layer metric of the traced run.
CATALOG = (
    ("sim.events", "count", "lower"),
    ("sim.events_per_op", "events/op", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.fast_path_ratio", "ratio", "higher"),
    ("sim.queue_len_mean", "count", "lower"),
    ("sim.queue_len_max", "count", "lower"),
    ("sim.doorbell_parks", "count", "lower"),
    ("sim.self_host_s", "s", "lower"),
    ("virtio.requests_posted", "count", "higher"),
    ("virtio.mem_accesses", "count", "lower"),
    ("virtio.mem_host_us", "us", "lower"),
    ("virtio.mem_regions", "count", "lower"),
    ("virtio.used_hit_ratio", "ratio", "higher"),
    ("iobond.pci_accesses", "count", "lower"),
    ("iobond.pci_access_sim_us", "sim_us", "lower"),
    ("iobond.syncs", "count", "lower"),
    ("iobond.entries_per_sync", "count", "higher"),
    ("iobond.sync_sim_us", "sim_us", "lower"),
    ("iobond.deliver_sim_us", "sim_us", "lower"),
    ("iobond.self_host_us_per_req", "us", "lower"),
    ("hypervisor.entries", "count", "higher"),
    ("hypervisor.wait_sim_us_p50", "sim_us", "lower"),
    ("hypervisor.wait_sim_us_p99", "sim_us", "lower"),
    ("hypervisor.self_host_us_per_entry", "us", "lower"),
    ("backend.submits", "count", "higher"),
    ("backend.submit_sim_us_p50", "sim_us", "lower"),
    ("backend.submit_sim_us_p99", "sim_us", "lower"),
    ("backend.self_host_us_per_submit", "us", "lower"),
    ("guest.sector_reads", "count", "lower"),
    ("guest.host_us_per_sector", "us", "lower"),
    ("fabric.transfers", "count", "higher"),
    ("fabric.transfer_sim_us_p50", "sim_us", "lower"),
    ("fabric.transfer_sim_us_p99", "sim_us", "lower"),
    ("fabric.self_host_us_per_transfer", "us", "lower"),
    ("fabric.reroutes", "count", "lower"),
    ("fabric.route_recomputes", "count", "lower"),
    ("fabric.recompute_host_ms", "ms", "lower"),
    ("cloud.scheduler.places", "count", "higher"),
    ("cloud.scheduler.releases", "count", "higher"),
    ("cloud.scheduler.place_host_us", "us", "lower"),
    ("cloud.scheduler.release_host_us", "us", "lower"),
    ("cloud.scheduler.verify_host_ms", "ms", "lower"),
    ("cloud.admission.calls", "count", "higher"),
    ("cloud.admission.admit_ratio", "ratio", "higher"),
    ("cloud.admission.host_us_per_call", "us", "lower"),
    ("cloud.health.probes", "count", "higher"),
    ("cloud.health.host_us_per_probe", "us", "lower"),
    ("cloud.health.transitions", "count", "lower"),
    ("cloud.health.tickets", "count", "lower"),
    ("cloud.audit.records", "count", "lower"),
    ("cloud.audit.host_us_per_record", "us", "lower"),
    ("fleet.churn.plan_host_s", "s", "lower"),
    ("fleet.churn.self_host_s", "s", "lower"),
    ("fleet.region.probe_sweeps", "count", "higher"),
    ("fleet.region.migrations", "count", "lower"),
    ("fleet.region.self_host_s", "s", "lower"),
    ("sim_io_p50_us", "sim_us", "lower"),
    ("sim_io_p99_us", "sim_us", "lower"),
    ("sim_iops", "1/sim_s", "higher"),
    ("sim_premium_avail_pct", "%", "higher"),
    ("sim_remediate_p50_ms", "sim_ms", "lower"),
    ("error_rate", "fraction", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _patches():
    """(owner, attribute, key, is_generator, keep_sim) per wrapped call."""
    from repro.backend.spdk import SpdkStorage
    from repro.cloud.admission import AdmissionController
    from repro.cloud.audit import AuditLog
    from repro.cloud.health import FleetHealth, RemediationPipeline
    from repro.cloud.scheduler import Scheduler
    from repro.core.server import BmHiveServer
    from repro.fabric.network import FabricNetwork
    from repro.fabric.routing import RoutingTables
    from repro.fleet.churn import ChurnPlan
    from repro.guest.image import VmImage
    from repro.iobond.bond import IoBond
    from repro.iobond.shadow import ShadowVring
    from repro.sim import Simulator
    from repro.virtio.memory import GuestMemory
    from repro.virtio.vring import VirtQueue

    return (
        (Simulator, "run", "sim:run", False, False),
        (Simulator, "run_process", "sim:run_process", False, False),
        (VirtQueue, "add_buffer", "virtio:add_buffer", False, False),
        (VirtQueue, "get_used", "virtio:get_used", False, False),
        (GuestMemory, "read", "virtio:mem_read", False, False),
        (GuestMemory, "write", "virtio:mem_write", False, False),
        (GuestMemory, "alloc", "virtio:mem_alloc", False, False),
        (IoBond, "guest_pci_access", "iobond:pci_access", True, True),
        (IoBond, "sync_to_shadow", "iobond:sync", True, True),
        (IoBond, "deliver_completions", "iobond:deliver", True, True),
        (ShadowVring, "stage_from_guest", "iobond:stage", False, False),
        (ShadowVring, "publish_staged", "iobond:publish", False, False),
        (BmHiveServer, "make_blk_handler", "hypervisor:make_handler",
         False, False),
        (SpdkStorage, "submit", "backend:submit", True, True),
        (VmImage, "read_sector", "guest:read_sector", False, False),
        (FabricNetwork, "transfer", "fabric:transfer", True, True),
        (RoutingTables, "recompute", "fabric:recompute", False, False),
        (Scheduler, "place", "cloud.scheduler:place", False, False),
        (Scheduler, "place_board", "cloud.scheduler:place_board",
         False, False),
        (Scheduler, "release", "cloud.scheduler:release", False, False),
        (Scheduler, "release_board", "cloud.scheduler:release_board",
         False, False),
        (Scheduler, "verify_index", "cloud.scheduler:verify", False, False),
        (Scheduler, "quarantine", "cloud.scheduler:quarantine", False, False),
        (Scheduler, "readmit", "cloud.scheduler:readmit", False, False),
        (AdmissionController, "admit", "cloud.admission:admit", False, False),
        (FleetHealth, "report_probe", "cloud.health:report_probe",
         False, False),
        (FleetHealth, "transition", "cloud.health:transition", False, False),
        (RemediationPipeline, "handle_quarantine",
         "cloud.health:handle_quarantine", False, False),
        (AuditLog, "record", "cloud.audit:record", False, False),
        (ChurnPlan, "sample", "fleet.churn:plan", False, False),
    )


#: Spawned-process name prefix -> span key (first match wins).
PROCESSES = (
    ("region.churn.", "fleet.churn:engine"),
    ("region.probes", "fleet.region:probes"),
    ("region.", "fleet.region:process"),
    ("remediate.", "cloud.health:remediate"),
    ("chaos.monitors", "monitors:sample"),
    ("bmhv.", "hypervisor:poll_loop"),
    ("bench.", "bench:driver"),
)


def install(tracer: Tracer, hooks: Optional[Dict[str, Callable]] = None):
    """Wrap every layer call in :func:`_patches` (plus the spawn hook).

    ``hooks`` maps a span key to the wrapper's ``after`` callback, so a
    workload can attach per-request bookkeeping to a layer boundary.
    """
    from repro.sim import Simulator

    # Regions per GuestMemory instance (regions are never freed, so the
    # count is also what each access scans). The workload clears it
    # when it builds a testbed and reads the maximum at the end.
    tracer.allocs = {}

    def count_alloc(args, _address):
        memory = id(args[0])
        tracer.allocs[memory] = tracer.allocs.get(memory, 0) + 1

    def count_entries(_args, staged, _span):
        tracer.count("iobond:entries", staged)

    def count_hits(_args, used):
        if used is not None:
            tracer.count("virtio:used_hits")

    generic = {"virtio:mem_alloc": count_alloc,
               "iobond:sync": count_entries,
               "virtio:get_used": count_hits}
    overlap = set(generic) & set(hooks or {})
    if overlap:
        raise ValueError(f"hooks collide with built-in counters: {overlap}")
    hooks = dict(generic, **(hooks or {}))
    for owner, attr, key, generator, keep_sim in _patches():
        tracer.patch(owner, attr, key, generator=generator,
                     after=hooks.get(key), keep_sim=keep_sim)

    spawn = Simulator.__dict__["spawn"]

    def traced_spawn(sim, generator, name=""):
        for prefix, key in PROCESSES:
            if name.startswith(prefix):
                generator = tracer.generator(generator, key)
                break
        return spawn(sim, generator, name)

    tracer.replace(Simulator, "spawn", traced_spawn)


def quantile(values: Iterable[float], q: float) -> float:
    """Nearest-rank quantile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(tracer: Tracer, agg: Dict) -> Dict[str, float]:
    """Every :data:`CATALOG` metric from the tracer's tables and ``agg``.

    ``agg`` holds the workload's counters summed over the traced
    episodes (see ``Episode.counters``), the op count, the host
    time the paired untraced episodes took, and the outcome metrics.
    """
    def st(key, phase="measure"):
        return tracer.stats(key, phase)

    def self_s(layer):
        return tracer.layer_self_s(layer)

    ops = agg["ops"]
    events = agg["events"]
    m: Dict[str, float] = {}
    m["sim.events"] = events
    m["sim.events_per_op"] = _per(events, ops)
    m["sim.events_per_s"] = _per(events, agg["untraced_wall_s"])
    m["sim.fast_path_ratio"] = _per(agg["fast_path_hits"], events)
    m["sim.queue_len_mean"] = _per(agg["queue_len_sum"], events)
    m["sim.queue_len_max"] = agg["queue_len_max"]
    m["sim.doorbell_parks"] = agg["doorbell_parks"]
    m["sim.self_host_s"] = self_s("sim")

    reads, writes = st("virtio:mem_read"), st("virtio:mem_write")
    gets = st("virtio:get_used")
    mem_calls = reads.calls + writes.calls
    m["virtio.requests_posted"] = st("virtio:add_buffer").calls
    m["virtio.mem_accesses"] = mem_calls
    m["virtio.mem_host_us"] = _per(reads.host_s + writes.host_s, mem_calls, 1e6)
    m["virtio.mem_regions"] = _per(agg["mem_regions"], agg["episodes"])
    m["virtio.used_hit_ratio"] = _per(st("virtio:used_hits").calls, gets.calls)

    pci, sync, deliver = (st("iobond:pci_access"), st("iobond:sync"),
                          st("iobond:deliver"))
    m["iobond.pci_accesses"] = pci.calls
    m["iobond.pci_access_sim_us"] = _per(sum(pci.sim_s), len(pci.sim_s), 1e6)
    m["iobond.syncs"] = sync.calls
    m["iobond.entries_per_sync"] = _per(st("iobond:entries").calls, sync.calls)
    m["iobond.sync_sim_us"] = _per(sum(sync.sim_s), len(sync.sim_s), 1e6)
    m["iobond.deliver_sim_us"] = _per(sum(deliver.sim_s), len(deliver.sim_s),
                                      1e6)
    m["iobond.self_host_us_per_req"] = _per(self_s("iobond"),
                                            agg["requests"], 1e6)

    entries = st("hypervisor:service").calls
    waits = agg["hv_wait_s"]
    m["hypervisor.entries"] = entries
    m["hypervisor.wait_sim_us_p50"] = quantile(waits, 0.50) * 1e6
    m["hypervisor.wait_sim_us_p99"] = quantile(waits, 0.99) * 1e6
    m["hypervisor.self_host_us_per_entry"] = _per(self_s("hypervisor"),
                                                  entries, 1e6)

    submit = st("backend:submit")
    m["backend.submits"] = submit.calls
    m["backend.submit_sim_us_p50"] = quantile(submit.sim_s, 0.50) * 1e6
    m["backend.submit_sim_us_p99"] = quantile(submit.sim_s, 0.99) * 1e6
    m["backend.self_host_us_per_submit"] = _per(self_s("backend"),
                                                submit.calls, 1e6)

    sectors = st("guest:read_sector")
    m["guest.sector_reads"] = sectors.calls
    m["guest.host_us_per_sector"] = _per(sectors.host_s, sectors.calls, 1e6)

    transfer = st("fabric:transfer")
    # Route recomputation is set-up work (attach) as well as measured
    # work (faults), so both phases count.
    recomputes = [st("fabric:recompute", phase) for phase in ("setup", "measure")]
    m["fabric.transfers"] = transfer.calls
    m["fabric.transfer_sim_us_p50"] = quantile(transfer.sim_s, 0.50) * 1e6
    m["fabric.transfer_sim_us_p99"] = quantile(transfer.sim_s, 0.99) * 1e6
    m["fabric.self_host_us_per_transfer"] = _per(self_s("fabric"),
                                                 transfer.calls, 1e6)
    m["fabric.reroutes"] = agg["reroutes"]
    m["fabric.route_recomputes"] = sum(r.calls for r in recomputes)
    m["fabric.recompute_host_ms"] = sum(r.host_s for r in recomputes) * 1e3

    places = [st("cloud.scheduler:place"), st("cloud.scheduler:place_board")]
    releases = [st("cloud.scheduler:release"),
                st("cloud.scheduler:release_board")]
    n_place = sum(s.calls for s in places)
    n_release = sum(s.calls for s in releases)
    verify = st("cloud.scheduler:verify")
    m["cloud.scheduler.places"] = n_place
    m["cloud.scheduler.releases"] = n_release
    m["cloud.scheduler.place_host_us"] = _per(
        sum(s.host_s for s in places), n_place, 1e6)
    m["cloud.scheduler.release_host_us"] = _per(
        sum(s.host_s for s in releases), n_release, 1e6)
    m["cloud.scheduler.verify_host_ms"] = _per(verify.host_s, verify.calls, 1e3)

    admit = st("cloud.admission:admit")
    m["cloud.admission.calls"] = admit.calls
    m["cloud.admission.admit_ratio"] = _per(admit.calls - admit.raised,
                                            admit.calls)
    m["cloud.admission.host_us_per_call"] = _per(admit.host_s, admit.calls, 1e6)

    probe = st("cloud.health:report_probe")
    m["cloud.health.probes"] = probe.calls
    m["cloud.health.host_us_per_probe"] = _per(probe.host_s, probe.calls, 1e6)
    m["cloud.health.transitions"] = st("cloud.health:transition").calls
    m["cloud.health.tickets"] = agg["tickets"]

    record = st("cloud.audit:record")
    m["cloud.audit.records"] = record.calls
    m["cloud.audit.host_us_per_record"] = _per(record.host_s, record.calls, 1e6)

    m["fleet.churn.plan_host_s"] = _per(st("fleet.churn:plan", "setup").host_s,
                                        agg["episodes"])
    m["fleet.churn.self_host_s"] = self_s("fleet.churn")
    m["fleet.region.probe_sweeps"] = st("fleet.region:probes").resumes
    m["fleet.region.migrations"] = agg["migrations"]
    m["fleet.region.self_host_s"] = self_s("fleet.region")

    for name in ("sim_io_p50_us", "sim_io_p99_us", "sim_iops",
                 "sim_premium_avail_pct", "sim_remediate_p50_ms"):
        m[name] = agg["outcome"].get(name, 0.0)
    m["error_rate"] = _per(agg["errors"], agg["attempted"])
    m["trace.overhead_pct"] = agg["overhead_pct"]
    missing = [name for name, _, _ in CATALOG if name not in m]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: float(m[name]) for name, _, _ in CATALOG}


def catalog_units() -> Dict[str, str]:
    return {name: unit for name, unit, _ in CATALOG}


def new_aggregate() -> Dict:
    """Zeroed counters that traced episodes add into."""
    return {"ops": 0, "events": 0, "fast_path_hits": 0, "queue_len_sum": 0,
            "queue_len_max": 0, "doorbell_parks": 0, "mem_regions": 0,
            "episodes": 0, "reroutes": 0, "migrations": 0, "tickets": 0,
            "requests": 0, "hv_wait_s": [], "untraced_wall_s": 0.0,
            "errors": 0, "attempted": 0, "outcome": {},
            "overhead_pct": 0.0}


def add_counters(agg: Dict, counters: Dict) -> None:
    """Fold one traced episode's counters into ``agg``."""
    for key, value in counters.items():
        if key == "queue_len_max":
            agg[key] = max(agg[key], value)
        elif isinstance(value, list):
            agg[key].extend(value)
        else:
            agg[key] += value
