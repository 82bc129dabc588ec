"""User-space I/O backends: DPDK vSwitch, SPDK storage, fabric, limits."""

from repro.backend.dpdk import PMD_BURST, DpdkSpec, DpdkVSwitch, VSwitchPort
from repro.backend.fabric import Fabric, FabricSpec, Nic
from repro.backend.limits import GuestLimiters, RateLimits
from repro.backend.media import CLOUD_SSD, LOCAL_NVME, Ssd, SsdSpec
from repro.backend.spdk import SpdkSpec, SpdkStorage
from repro.backend.switching import FlowCache, ForwardingPlane, MacTable
from repro.backend.tap import TapBackend, TapSpec
from repro.backend.vhost import (
    VhostRequest,
    VhostUserBackend,
    VhostUserFrontend,
    VhostUserMessage,
)

__all__ = [
    "RateLimits",
    "GuestLimiters",
    "DpdkVSwitch",
    "DpdkSpec",
    "VSwitchPort",
    "PMD_BURST",
    "SpdkStorage",
    "SpdkSpec",
    "Ssd",
    "SsdSpec",
    "CLOUD_SSD",
    "LOCAL_NVME",
    "Fabric",
    "FabricSpec",
    "Nic",
    "TapBackend",
    "TapSpec",
    "VhostUserFrontend",
    "VhostUserBackend",
    "VhostUserMessage",
    "VhostRequest",
    "MacTable",
    "FlowCache",
    "ForwardingPlane",
]
