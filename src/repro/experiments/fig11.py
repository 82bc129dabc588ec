"""Fig 11: storage I/O latency (fio), plus the unrestricted local run.

Paper: "Both the bm-guest and vm-guest saturated the storage limit,
i.e., 25K IOPS. However, the bm-guest had lower average latency and
99.9th percentile latency... the bm-guest was about 25% faster than
the vm-guest in average, and three times faster in the 99.9th
percentile latency (for random read)." Unrestricted on the local SSD:
"BM-Hive is 50% faster in IOPS and 100% faster in bandwidth than the
vm-guest. The average latency is only 60us."
"""

from __future__ import annotations

from repro.backend.limits import RateLimits
from repro.experiments.base import ExperimentResult, check, check_between
from repro.experiments.common import make_testbed
from repro.workloads.fio import fio_run

EXPERIMENT_ID = "fig11"
TITLE = "fio 4KB random I/O: latency and IOPS, bm vs vm"


def run(seed: int = 0, quick: bool = True) -> ExperimentResult:
    ops = 400 if quick else 1500
    bed = make_testbed(seed)
    rows = []
    results = {}
    for guest in (bed.bm, bed.vm):
        for pattern in ("randread", "randwrite"):
            result = fio_run(bed.sim, guest, pattern=pattern, ops_per_thread=ops)
            results[(guest.kind, pattern)] = result
            rows.append(
                {
                    "guest": guest.kind,
                    "pattern": pattern,
                    "iops": result.iops,
                    "mean_clat_us": result.mean_latency_us,
                    "p999_clat_us": result.p999_latency_us,
                }
            )

    # Unrestricted: local SSD, no IOPS cap.
    free_bed = make_testbed(seed + 50, limits=RateLimits.unrestricted(),
                            local_storage=True)
    bm_free = fio_run(free_bed.sim, free_bed.bm, pattern="randread",
                      ops_per_thread=ops)
    vm_free = fio_run(free_bed.sim, free_bed.vm, pattern="randread",
                      ops_per_thread=ops)
    for name, result in (("bm (local, no limit)", bm_free),
                         ("vm (local, no limit)", vm_free)):
        rows.append(
            {
                "guest": name,
                "pattern": "randread",
                "iops": result.iops,
                "mean_clat_us": result.mean_latency_us,
                "p999_clat_us": result.p999_latency_us,
            }
        )

    bm_read = results[("bm", "randread")]
    vm_read = results[("vm", "randread")]
    checks = [
        check("both guests saturate the 25K IOPS limit",
              bm_read.iops > 23e3 and vm_read.iops > 23e3,
              f"bm {bm_read.iops:.0f}, vm {vm_read.iops:.0f}"),
        check_between("bm average advantage (paper ~25%)",
                      vm_read.mean_latency_us / bm_read.mean_latency_us, 1.15, 1.45),
        check_between("bm p99.9 advantage, rand read (paper ~3x)",
                      vm_read.p999_latency_us / bm_read.p999_latency_us, 2.0, 5.0),
        check_between("unrestricted bm IOPS gain (paper ~50%)",
                      bm_free.iops / vm_free.iops, 1.3, 2.3),
        check_between("unrestricted bm average latency (paper ~60us)",
                      bm_free.mean_latency_us, 45.0, 90.0),
    ]
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, checks)
