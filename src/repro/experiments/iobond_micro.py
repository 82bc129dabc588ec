"""Section 3.4.3: IO-Bond microbenchmarks.

Published constants this experiment verifies end-to-end through the
simulated hardware (not by reading the spec constants back):

* a guest PCI access through IO-Bond takes 1.6 us (2 x 0.8 us hops);
* the projected ASIC drops that to 0.4 us (2 x 0.2 us);
* internal DMA throughput is ~50 Gb/s;
* each virtio device gets a PCIe x4 (32 Gb/s); per-guest max 50 Gb/s.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, check, check_between
from repro.iobond import IoBond, IoBondSpec
from repro.sim import Simulator
from repro.virtio import VirtioNetDevice, full_init

EXPERIMENT_ID = "iobond_micro"
TITLE = "IO-Bond microbenchmarks: PCI access latency, DMA throughput"


def _measure_pci_access(sim, bond, port) -> float:
    start = sim.now
    sim.run_process(bond.guest_pci_access(port, "device_status"))
    return sim.now - start


def _measure_dma_gbps(sim, bond, nbytes: int = 1 << 20) -> float:
    start = sim.now
    sim.run_process(bond.dma.copy(nbytes))
    elapsed = sim.now - start
    return nbytes * 8.0 / elapsed / 1e9


def run(seed: int = 0, quick: bool = True) -> ExperimentResult:
    sim = Simulator(seed=seed)
    fpga = IoBond(sim, IoBondSpec.fpga(), name="fpga")
    fpga_port = fpga.add_port("net", full_init(VirtioNetDevice()))
    asic = IoBond(sim, IoBondSpec.asic(), name="asic")
    asic_port = asic.add_port("net", full_init(VirtioNetDevice()))

    fpga_access = _measure_pci_access(sim, fpga, fpga_port)
    asic_access = _measure_pci_access(sim, asic, asic_port)
    dma_gbps = _measure_dma_gbps(sim, fpga)
    x4_gbps = fpga_port.board_link.spec.bandwidth_bps / 1e9
    guest_max = fpga.max_guest_bandwidth_gbps

    rows = [
        {"quantity": "PCI access, FPGA", "measured": fpga_access * 1e6,
         "unit": "us", "paper": 1.6},
        {"quantity": "PCI access, ASIC (projected)", "measured": asic_access * 1e6,
         "unit": "us", "paper": 0.4},
        {"quantity": "DMA throughput", "measured": dma_gbps, "unit": "Gb/s",
         "paper": 50.0},
        {"quantity": "per-device x4 link", "measured": x4_gbps, "unit": "Gb/s",
         "paper": 32.0},
        {"quantity": "per-guest max bandwidth", "measured": guest_max,
         "unit": "Gb/s", "paper": 50.0},
    ]
    checks = [
        check_between("FPGA PCI access (paper 1.6us)", fpga_access * 1e6, 1.55, 1.65),
        check_between("ASIC PCI access (paper 0.4us)", asic_access * 1e6, 0.35, 0.45),
        check("ASIC is the promised 75% reduction per hop",
              abs(asic_access / fpga_access - 0.25) < 0.02),
        check_between("DMA throughput (paper ~50Gb/s)", dma_gbps, 45.0, 50.5),
        check("x4 device link is 32 Gb/s", abs(x4_gbps - 32.0) < 0.1),
        check("per-guest bandwidth capped at 50 Gb/s", abs(guest_max - 50.0) < 0.1),
    ]
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, checks)
