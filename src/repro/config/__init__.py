"""Typed configuration layer: the platform described as one value.

Re-exports the per-layer spec dataclasses next to the composites so a
sweep script needs exactly one import::

    from repro.config import HardwareProfile
    profile = HardwareProfile.asic()
    bed = TestbedBuilder().profile(profile).build()
"""

from repro.backend.dpdk import DpdkSpec
from repro.backend.fabric import FabricSpec
from repro.backend.media import CLOUD_SSD, LOCAL_NVME, SsdSpec
from repro.backend.spdk import SpdkSpec
from repro.backend.tap import TapSpec
from repro.config.profile import (
    BackendSpec,
    GuestSpec,
    HardwareProfile,
    PollSpec,
    QueueSpec,
    spec_to_dict,
)
from repro.guest.kernel import KernelSpec
from repro.hw.board import ChassisSpec
from repro.hw.dma import DmaEngineSpec
from repro.hw.interrupts import InterruptSpec
from repro.hw.pcie import GEN3_PER_LANE_GBPS, GEN4_PER_LANE_GBPS, PcieLinkSpec
from repro.hypervisor.bm import BmHypervisorSpec
from repro.hypervisor.kvm import HostSchedulerSpec, KvmSpec
from repro.iobond.bond import IoBondSpec

__all__ = [
    "HardwareProfile",
    "BackendSpec",
    "GuestSpec",
    "PollSpec",
    "QueueSpec",
    "spec_to_dict",
    "PcieLinkSpec",
    "IoBondSpec",
    "DmaEngineSpec",
    "InterruptSpec",
    "ChassisSpec",
    "BmHypervisorSpec",
    "KvmSpec",
    "HostSchedulerSpec",
    "KernelSpec",
    "DpdkSpec",
    "SpdkSpec",
    "FabricSpec",
    "TapSpec",
    "SsdSpec",
    "CLOUD_SSD",
    "LOCAL_NVME",
    "GEN3_PER_LANE_GBPS",
    "GEN4_PER_LANE_GBPS",
]
