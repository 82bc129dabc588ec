"""Fig 9: UDP packet receive rate (netperf), plus the unrestricted run.

Paper: "Both the bm-guest and vm-guest reached more than 3.2M PPS. The
vm-guest performed slightly better than the bm-guest with less
jitters... Under the same conditions, BM-Hive can achieve 16M PPS [with
the limit removed], significantly higher than the 4M PPS limit."
"""

from __future__ import annotations

from repro.backend.limits import RateLimits
from repro.experiments.base import ExperimentResult, check, check_between
from repro.experiments.common import make_testbed
from repro.sim import Simulator
from repro.core.server import BmHiveServer
from repro.workloads.netperf import udp_pps_test

EXPERIMENT_ID = "fig9"
TITLE = "UDP PPS between co-resident guest pairs"


def run(seed: int = 0, quick: bool = True) -> ExperimentResult:
    duration = 0.03 if quick else 0.1
    trials = 2 if quick else 3
    bm_runs, vm_runs = [], []
    for trial in range(trials):
        bed = make_testbed(seed + trial)
        bm_runs.append(udp_pps_test(bed.sim, bed.bm, bed.bm_peer, duration_s=duration))
        vm_runs.append(udp_pps_test(bed.sim, bed.vm, bed.vm_peer, duration_s=duration))

    bm_pps = sum(r.mean_pps for r in bm_runs) / trials
    vm_pps = sum(r.mean_pps for r in vm_runs) / trials
    bm_jitter = sum(r.jitter_pps for r in bm_runs) / trials
    vm_jitter = sum(r.jitter_pps for r in vm_runs) / trials

    # Unrestricted: DPDK in the guest, limiters off.
    sim = Simulator(seed=seed + 100)
    hive = BmHiveServer(sim)
    free = RateLimits.unrestricted()
    ua = hive.launch_guest(name="unlimited-a", limits=free)
    ub = hive.launch_guest(name="unlimited-b", limits=free)
    unrestricted = udp_pps_test(sim, ua, ub, duration_s=0.004, bypass=True, batch=64)

    rows = [
        {"guest": "bm-guest", "mean_mpps": bm_pps / 1e6, "jitter_kpps": bm_jitter / 1e3,
         "bottleneck": bm_runs[0].bottleneck_stage},
        {"guest": "vm-guest", "mean_mpps": vm_pps / 1e6, "jitter_kpps": vm_jitter / 1e3,
         "bottleneck": vm_runs[0].bottleneck_stage},
        {"guest": "bm-guest (no limit, DPDK)", "mean_mpps": unrestricted.mean_pps / 1e6,
         "jitter_kpps": unrestricted.jitter_pps / 1e3,
         "bottleneck": unrestricted.bottleneck_stage},
    ]
    checks = [
        check("both guests exceed 3.2M PPS", bm_pps > 3.2e6 and vm_pps > 3.2e6,
              f"bm {bm_pps/1e6:.2f}M, vm {vm_pps/1e6:.2f}M"),
        check("both stay within the 4M PPS limit",
              bm_pps <= 4.05e6 and vm_pps <= 4.05e6),
        check("vm-guest slightly better (longer bm I/O path)",
              1.0 < vm_pps / bm_pps < 1.15,
              f"vm/bm = {vm_pps/bm_pps:.3f}"),
        check("bm-guest shows more jitter", bm_jitter > vm_jitter,
              f"bm {bm_jitter/1e3:.0f}K vs vm {vm_jitter/1e3:.0f}K"),
        check_between("unrestricted bm PPS (paper: 16M)",
                      unrestricted.mean_pps / 1e6, 12.0, 20.0),
    ]
    notes = ("Averaged over %d trials; jitter is the std of the per-window "
             "rate series." % trials)
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, checks, notes)
