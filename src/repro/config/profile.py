"""Typed hardware configuration: one description of the whole platform.

The paper's results hang on a handful of published constants — the
0.8 µs IO-Bond PCIe hop (0.2 µs projected for the ASIC, Section 6),
32/64 Gb/s Gen3 x4/x8 links, the ~50 Gb/s shadow-vring DMA engine, the
backend poll cadences. Historically each lived as a module-level
default scattered across ``hw/``, ``iobond/``, ``backend/`` and
``core/``; sweeping any of them meant monkeypatching.

:class:`HardwareProfile` composes the per-layer frozen spec dataclasses
into a single validated value that every stack layer accepts via
constructor injection. Named presets pin the interesting design points:

* :meth:`HardwareProfile.paper` — the published constants (the old
  module defaults, bit-for-bit);
* :meth:`HardwareProfile.asic` — the Section 6 ASIC projection
  (0.2 µs per PCI hop instead of 0.8 µs);
* :meth:`HardwareProfile.gen4` — PCIe Gen4 links (16 Gb/s/lane).

Sweep scripts vary one field with :func:`dataclasses.replace` and
rebuild a testbed without touching code; :func:`spec_to_dict` renders a
spec as plain JSON for report headers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Dict

from repro.backend.dpdk import DpdkSpec
from repro.backend.fabric import FabricSpec
from repro.backend.media import CLOUD_SSD, LOCAL_NVME, SsdSpec
from repro.backend.spdk import SpdkSpec
from repro.backend.tap import TapSpec
from repro.fabric.topology import TopologySpec
from repro.guest.kernel import KernelSpec
from repro.hw.board import ChassisSpec
from repro.hw.dma import DmaEngineSpec
from repro.hw.interrupts import InterruptSpec
from repro.hw.pcie import GEN4_PER_LANE_GBPS, PcieLinkSpec
from repro.hypervisor.bm import BmHypervisorSpec
from repro.hypervisor.kvm import HostSchedulerSpec, KvmSpec
from repro.iobond.bond import IoBondSpec

__all__ = [
    "BackendSpec",
    "GuestSpec",
    "PollSpec",
    "QueueSpec",
    "HardwareProfile",
    "spec_to_dict",
]


@dataclass(frozen=True)
class BackendSpec:
    """The base server's user-space I/O stack (Section 3.4.2)."""

    dpdk: DpdkSpec = field(default_factory=DpdkSpec)
    spdk: SpdkSpec = field(default_factory=SpdkSpec)
    fabric: FabricSpec = field(default_factory=FabricSpec)
    tap: TapSpec = field(default_factory=TapSpec)
    cloud_media: SsdSpec = CLOUD_SSD
    local_media: SsdSpec = LOCAL_NVME
    poll_mode: bool = True  # PMD everywhere; False is the ablation


@dataclass(frozen=True)
class GuestSpec:
    """What one guest is made of (Section 4.1's instance shape)."""

    cpu_model: str = "Xeon E5-2682 v4"
    memory_gib: int = 64
    virtio_queue_size: int = 256
    kernel: KernelSpec = field(default_factory=KernelSpec)
    kvm: KvmSpec = field(default_factory=KvmSpec)
    host_scheduler: HostSchedulerSpec = field(default_factory=HostSchedulerSpec)


@dataclass(frozen=True)
class QueueSpec:
    """Multi-queue shape of the guest->backend datapath.

    ``blk_queues``/``net_queue_pairs`` size the virtio devices
    (VIRTIO_BLK_F_MQ request queues / VIRTIO_NET_F_MQ pairs);
    ``backend_workers`` shards the vhost/SPDK/DPDK backends across
    poll-mode workers (queue-affine, ring ``i`` -> worker
    ``i % workers``). ``passthrough`` selects the per-queue-worker
    bm-hypervisor datapath (each virtqueue gets its own doorbell and
    service loop, so backend round-trips overlap across queues) instead
    of the default mediated single poll loop. The defaults reproduce
    the historical single-ring wiring bit-for-bit.
    """

    blk_queues: int = 1
    net_queue_pairs: int = 1
    backend_workers: int = 1
    passthrough: bool = False


@dataclass(frozen=True)
class PollSpec:
    """Poll cadences of the loops that are not part of a layer spec.

    The bm-hypervisor's own cadence lives in
    :class:`~repro.hypervisor.bm.BmHypervisorSpec`; these are the
    remaining hardcoded loops: the EFI firmware's used-ring poll, the
    vhost-blk service, and the vm paths' backend pickup.
    """

    firmware_used_poll_s: float = 10e-6
    vhost_blk_poll_s: float = 2e-6
    vhost_blk_service_s: float = 150e-6
    vm_net_backend_poll_s: float = 0.5e-6
    vm_blk_backend_poll_s: float = 2e-6


@dataclass(frozen=True)
class HardwareProfile:
    """Every tunable of the simulated platform, in one frozen value."""

    name: str = "paper"
    board_pcie: PcieLinkSpec = PcieLinkSpec(lanes=8)  # compute board bus
    iobond: IoBondSpec = field(default_factory=IoBondSpec)
    bm_hypervisor: BmHypervisorSpec = field(default_factory=BmHypervisorSpec)
    backend: BackendSpec = field(default_factory=BackendSpec)
    guest: GuestSpec = field(default_factory=GuestSpec)
    poll: PollSpec = field(default_factory=PollSpec)
    queues: QueueSpec = field(default_factory=QueueSpec)
    chassis: ChassisSpec = field(default_factory=ChassisSpec)
    # Multi-hop fabric shape (repro.fabric). The default is disabled
    # (``n_racks=0``): no FabricNetwork is constructed and the
    # single-hop fabric stays byte-identical to pre-topology builds.
    topology: TopologySpec = field(default_factory=TopologySpec)

    def __post_init__(self):
        _validate(self, "profile")

    # -- presets -----------------------------------------------------------
    @classmethod
    def paper(cls) -> "HardwareProfile":
        """The published constants — the pre-config module defaults."""
        return cls()

    @classmethod
    def asic(cls) -> "HardwareProfile":
        """Section 6's ASIC IO-Bond: 0.2 µs per PCI hop, not 0.8 µs."""
        return cls(name="asic", iobond=IoBondSpec.asic())

    @classmethod
    def gen4(cls) -> "HardwareProfile":
        """PCIe Gen4 everywhere: 16 Gb/s per lane on every link."""
        base = cls()
        return replace(
            base,
            name="gen4",
            board_pcie=replace(base.board_pcie, per_lane_gbps=GEN4_PER_LANE_GBPS),
            iobond=replace(base.iobond, per_lane_gbps=GEN4_PER_LANE_GBPS),
        )

    @classmethod
    def from_name(cls, name: str) -> "HardwareProfile":
        presets = {"paper": cls.paper, "asic": cls.asic, "gen4": cls.gen4}
        try:
            return presets[name]()
        except KeyError:
            known = ", ".join(sorted(presets))
            raise ValueError(f"unknown profile {name!r}; one of: {known}") from None


# ---------------------------------------------------------------------------
# Generic dataclass -> dict rendering
# ---------------------------------------------------------------------------
def spec_to_dict(spec) -> Dict[str, Any]:
    """Recursively convert a spec dataclass to a plain JSON-able dict."""
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(spec):
        out[f.name] = _to_jsonable(getattr(spec, f.name))
    return out


def _to_jsonable(value):
    if dataclasses.is_dataclass(value):
        return spec_to_dict(value)
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    return value


# Numeric fields that must be strictly positive: rates/capacities where
# zero would divide-by-zero or silence a whole subsystem.
_POSITIVE_SUFFIXES = ("_gbps", "_mbps", "_bps", "_mts", "_iops")
_POSITIVE_FIELDS = {
    "lanes",
    "channels",
    "bus_bytes",
    "max_payload",
    "memory_gib",
    "capacity_gib",
    "virtio_queue_size",
    "parallel_channels",
    "max_slots",
    "max_iops",
    "write_replicas",
    "blk_queues",
    "net_queue_pairs",
    "backend_workers",
}


def _validate(spec, path: str) -> None:
    """Reject physically meaningless specs (negative latency/bandwidth)."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        where = f"{path}.{f.name}"
        if dataclasses.is_dataclass(value):
            _validate(value, where)
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if value < 0:
            raise ValueError(f"{where} must be >= 0, got {value!r}")
        strictly_positive = f.name in _POSITIVE_FIELDS or f.name.endswith(
            _POSITIVE_SUFFIXES
        )
        if strictly_positive and value <= 0:
            raise ValueError(f"{where} must be > 0, got {value!r}")
