"""Multi-queue datapath ablation: mediated vs queue passthrough.

The paper's IO-Bond carries every virtio device over *one* mediated
datapath: the bm-hypervisor's single poll loop drains the mailbox and
every shadow vring, driving each backend round-trip inline — so
requests on different virtqueues serialize behind one service thread.
The natural hardware evolution (and the design point the multi-queue
refactor enables) is *queue passthrough*: each virtqueue gets its own
doorbell and its own worker, so backend round-trips overlap across
queues exactly as blk-mq intends.

This experiment quantifies that choice. One bm-guest with an N-queue
VIRTIO_BLK_F_MQ device issues a fixed batch of 4 KiB reads per queue
through the full Fig 6 machinery (guest vring post, emulated
queue-notify, shadow-vring sync, SPDK/cloud-storage round-trip,
completion DMA + MSI), once with the default mediated loop and once
with per-queue passthrough workers, on both the FPGA (``paper``) and
projected ``asic`` profiles. Rate limits are lifted so the datapath —
not the token buckets — is what is measured.

The headline check (also a CI gate) is that passthrough sustains at
least 1.2x the mediated IOPS on the ASIC profile, where the shorter
PCI hops make the serialized service loop the dominant bottleneck.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.backend.limits import RateLimits
from repro.config.profile import HardwareProfile, QueueSpec
from repro.core.server import BmHiveServer, blk_handler
from repro.experiments.base import ExperimentResult, check
from repro.sim import Simulator
from repro.virtio.blk import SECTOR_BYTES, BlkQueueDriver
from repro.virtio.device import full_init

EXPERIMENT_ID = "mq_ablation"
TITLE = "Multi-queue I/O ablation: mediated loop vs queue passthrough"

READ_BYTES = 4096


def _mq_iops(seed: int, profile_name: str, passthrough: bool,
             n_queues: int, per_queue: int) -> Dict:
    """One measured configuration: total read IOPS through N queues."""
    sim = Simulator(seed=seed)
    base = HardwareProfile.from_name(profile_name)
    profile = replace(base, queues=QueueSpec(
        blk_queues=n_queues, backend_workers=n_queues,
        passthrough=passthrough))
    hive = BmHiveServer(sim, name=f"mq-{profile_name}", profile=profile)
    guest = hive.launch_guest(name=f"mq-{profile_name}-guest",
                              limits=RateLimits.unrestricted())
    blk = guest.blk_device
    port = guest.bond.port("blk")
    hypervisor = guest.hypervisor
    full_init(blk)

    for qi in range(n_queues):
        hypervisor.register_handler("blk", qi,
                                    blk_handler(hive.storage, guest, qi))
    hypervisor.mark_booting()
    hypervisor.start()
    hypervisor.mark_running()

    n_sectors = READ_BYTES // SECTOR_BYTES

    def driver(queue_index: int):
        """Guest-side load: post the whole batch, one kick, drain used."""
        queue = BlkQueueDriver(sim, blk, profile.poll.firmware_used_poll_s,
                               queue_index, bond=guest.bond)
        try:
            for request in range(per_queue):
                sector = ((queue_index * per_queue + request) * n_sectors
                          % (blk.capacity_sectors - n_sectors))
                queue.submit(sector, READ_BYTES)
            yield from queue.kick()
            for _ in range(per_queue):
                yield from queue.wait()
        finally:
            queue.close()

    drivers = [sim.spawn(driver(qi), name=f"mq.driver.q{qi}")
               for qi in range(n_queues)]

    def gather():
        for process in drivers:
            yield process

    start = sim.now
    sim.run_process(gather())
    makespan_s = sim.now - start
    total = n_queues * per_queue
    completions = sum(port.queue_completions.get(qi, 0)
                      for qi in range(n_queues))
    worker_spread = list(hive.storage.worker_submitted)
    return {
        "profile": profile_name,
        "mode": "passthrough" if passthrough else "mediated",
        "n_queues": n_queues,
        "requests": total,
        "makespan_us": makespan_s * 1e6,
        "iops": total / makespan_s,
        "completions": completions,
        "worker_spread": worker_spread,
    }


def run(seed: int = 0, quick: bool = True) -> ExperimentResult:
    n_queues = 4
    per_queue = 16 if quick else 64

    rows = []
    by_key: Dict[tuple, Dict] = {}
    for profile_name in ("paper", "asic"):
        for passthrough in (False, True):
            row = _mq_iops(seed, profile_name, passthrough,
                           n_queues, per_queue)
            by_key[(profile_name, passthrough)] = row
            measured = {k: v for k, v in row.items()
                        if k != "worker_spread"}
            measured["speedup"] = None
            rows.append(measured)

    speedups = {}
    for profile_name in ("paper", "asic"):
        mediated = by_key[(profile_name, False)]
        pass_through = by_key[(profile_name, True)]
        speedup = pass_through["iops"] / mediated["iops"]
        speedups[profile_name] = speedup
        rows.append({
            "profile": profile_name, "mode": "speedup",
            "n_queues": n_queues, "requests": mediated["requests"],
            "makespan_us": None,
            "iops": None,
            "completions": None,
            "speedup": speedup,
        })

    total = n_queues * per_queue
    checks = [
        check("every request completes in every configuration",
              all(row["completions"] == total for row in by_key.values()),
              f"{[row['completions'] for row in by_key.values()]} vs {total}"),
        check("submissions shard queue-affine across backend workers",
              all(row["worker_spread"] == [per_queue] * n_queues
                  for row in by_key.values()),
              f"spread {by_key[('paper', True)]['worker_spread']}"),
        check("passthrough >= 1.2x mediated IOPS on ASIC (CI gate)",
              speedups["asic"] >= 1.2,
              f"asic speedup {speedups['asic']:.3f}x"),
        check("passthrough helps on the FPGA profile too",
              speedups["paper"] >= 1.05,
              f"paper speedup {speedups['paper']:.3f}x"),
    ]
    notes = ("Mediated: one poll loop drives every queue's backend "
             "round-trip inline. Passthrough: per-queue workers and "
             "doorbells overlap round-trips across queues.")
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, checks, notes=notes)
