#!/usr/bin/env python3
"""Generate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Run from the repository root:
    python scripts/generate_experiments_md.py
"""

import time

from repro.experiments import ALL_EXPERIMENTS

PAPER_CLAIMS = {
    "table1": "Qualitative comparison: BM-Hive combines VM-cloud density with bare-metal isolation",
    "table2": "3.82% of VMs >10K exits/s/vCPU, 0.37% >50K, 0.13% >100K",
    "table3": "Instances from 4HT Atom to 96HT dual-socket boards; up to 16 boards/server",
    "fig1": "Shared VMs preempted 2-4% (p99) / 2-10% (p99.9); exclusive ~0.2%/0.5%, stable",
    "fig7": "SPEC CINT2006: bm ~4% faster than physical; vm ~4% slower",
    "fig8": "STREAM: bm == physical at the 4-channel limit; vm ~98% of bm under load",
    "fig9": "Both >3.2M PPS under the 4M cap; vm slightly better, less jitter; unrestricted bm = 16M PPS",
    "fig10": "Kernel-stack UDP latency ~equal; DPDK bypass and ping: vm slightly better (3-PCIe-bus bm path)",
    "fig11": "Both saturate 25K IOPS; bm ~25% lower avg latency, ~3x lower p99.9 (randread); local SSD: bm +50% IOPS, ~60us avg",
    "fig12": "NGINX: bm serves 50-60% more RPS; ~30% shorter response time",
    "fig13": "MariaDB read-only: 195K (bm) vs 170K (vm) QPS, +14.7%",
    "fig14": "MariaDB: bm +42% write-only, +55% read/write",
    "fig15": "Redis: bm +20-40% RPS across 1K-10K clients",
    "fig16": "Redis vs value size: bm faster and flatter; vm fluctuates (cache); all >80K RPS",
    "cost": "88 vs 256 sellable HT; bm price -10%; TDP 3.06 vs 3.17 W/vCPU",
    "nested": "Nested guest ~80% of native CPU, ~25% for I/O; bm runs hypervisors natively",
    "iobond_micro": "PCI access 1.6us (FPGA) / 0.4us (ASIC, -75%); DMA ~50Gb/s; x4 = 32Gb/s; 50Gb/s per guest",
    "security": "No side channels or cache DoS across boards; firmware updates require valid signatures",
    "ablations": "PMD >> interrupt mode; TAP not deployable; ASIC trims latency; EVENT_IDX coalescing matters",
    "future_work": "ASIC -75% PCI latency; IO-Bond offload -> cheaper base CPU; Orthus live upgrade; migration prototype drawbacks; native SGX",
    "fault_isolation": "One bm-hypervisor per guest (Section 3.2): a crash is detected, the process restarted, in-flight I/O replayed; co-tenants on the same server are untouched",
    "chaos_campaign": "Sections 3.2/3.4.1 generalized: under randomized seeded fault campaigns, exactly-once used-ring delivery and shadow-vring sync windows hold at every sample, and every guest the plan never targets matches its fault-free run float-for-float",
    "mq_ablation": "Section 3.4 ablated: the mediated bm-hypervisor loop serializes backend round-trips; per-queue passthrough workers overlap them, so an N-queue virtio-blk device scales IOPS with queue count (ASIC profile gains >= 1.2x)",
    "cross_rack": "Section 3.4.2 extended to a multi-hop fabric: interference is positional on a Clos — a same-rack noisy neighbor (shared ToR uplink + spine-storage link) slows a victim materially more than the same neighbor one rack over (shared spine-storage link only), and an idle fabric not at all",
    "incast": "Section 3.2's isolation claim at fabric scale: a many-to-one incast burst that loses its funnel link (spine-0|storage flap) mid-burst reroutes in-flight transfers over the redundant spine with exactly-once delivery and a bounded makespan penalty — a performance event, not a correctness event",
    "region_resilience": "Sections 3.2/6 at fleet scope: health probes quarantine failing servers, a remediation pipeline drains and readmits them exactly once, and admission backpressure sheds best-effort load when healthy headroom collapses — premium guests never land on quarantined metal",
    "region_scale": "Section 6's density claim at control-plane scale: rungs of 4/64/1024 racks at constant per-board load complete >1M guest-lifetimes through one indexed first-fit scheduler, with per-placement cost flat from 64 to 1024 racks (placement is no longer O(servers))",
}


def main():
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `scripts/generate_experiments_md.py` (quick mode, seed 0).",
        "Absolute values are simulator-scale; each experiment's *shape checks*",
        "assert the paper's qualitative result (who wins, by what factor,",
        "where crossovers fall). All values below regenerate deterministically.",
        "",
        "Everything runs under `HardwareProfile.paper()` (the published",
        "constants). To rerun a datapath experiment on alternate hardware,",
        "build the testbed with another preset — e.g.",
        "`make_testbed(profile=HardwareProfile.asic())` or",
        "`TestbedBuilder().profile(\"gen4\").servers(3).build()` — or vary a",
        "single field of a preset with `dataclasses.replace`. The `ablations`",
        "experiment below uses the presets directly: its FPGA-vs-ASIC rows",
        "are two end-to-end runs of the same fio workload under `paper()`",
        "and `asic()`.",
        "",
    ]
    summary_at = len(lines)
    total = passed = 0
    for exp_id, runner in ALL_EXPERIMENTS.items():
        start = time.time()
        result = runner(seed=0, quick=True)
        elapsed = time.time() - start
        total += 1
        passed += result.passed
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"## {exp_id} — {result.title}")
        lines.append("")
        lines.append(f"**Paper:** {PAPER_CLAIMS[exp_id]}")
        lines.append("")
        lines.append("```")
        lines.append(result.format_table())
        lines.append("```")
        lines.append("")
        lines.append("Checks:")
        for check in result.checks:
            mark = "x" if check.passed else " "
            detail = f" — {check.detail}" if check.detail else ""
            lines.append(f"- [{mark}] {check.name}{detail}")
        if result.notes:
            lines.append("")
            lines.append(f"*{result.notes}*")
        lines.append("")
        lines.append(f"_Status: {status} ({elapsed:.1f}s)_")
        lines.append("")
    lines.insert(summary_at,
                 f"**Summary: {passed}/{total} experiments pass their shape checks.**")
    lines.insert(summary_at + 1, "")
    with open("EXPERIMENTS.md", "w") as fh:
        fh.write("\n".join(lines))
    print(f"EXPERIMENTS.md written: {passed}/{total} pass")


if __name__ == "__main__":
    main()
