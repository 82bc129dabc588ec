"""Shared test-bed construction for the evaluation experiments.

Section 4.1: "All the experiments were conducted on the Xeon E5-2682
v4 instance... Both the bm-guest and the vm-guest run on the Xeon
E5-2682 v4 CPU with 64GB of RAM. VM-guests are exclusive instance and
pinned to the physical CPU cores with NUMA node affinity."

:class:`TestbedBuilder` is the declarative way to stand that
environment up — and to stand up anything the paper only gestures at:
multi-server fabrics, dense boards, an ASIC-mode IO-Bond::

    bed = (TestbedBuilder()
           .seed(7)
           .servers(4)
           .guests_per_server(8)
           .profile(HardwareProfile.asic())
           .build())

The default shape (one BM-Hive server + one KVM server, two guests
each, the ``paper`` profile) is bit-identical to the historical
:func:`make_testbed` wiring — same guest names, same RNG streams, same
simulator event order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import List, Optional, Union

from repro.backend.limits import RateLimits
from repro.config.profile import HardwareProfile, QueueSpec
from repro.fabric.topology import TopologySpec
from repro.core.guests import BmGuest, PhysicalMachine, VmGuest
from repro.core.server import BmHiveServer, VirtServer
from repro.guest.image import VmImage
from repro.sim import Simulator, idle_skip_default

__all__ = [
    "Testbed",
    "TestbedBuilder",
    "make_testbed",
    "boot_testbed",
    "DEFAULT_BOOT_IMAGE",
]

#: Image :func:`boot_testbed` boots; deterministic synthetic content.
#: Its sector bytes derive from the name, so renaming it would change
#: every booted run's payloads (and perfbench's ring_io fingerprints).
DEFAULT_BOOT_IMAGE = "warm-base"


@dataclass
class Testbed:
    """One simulator with the standard guest trio wired up.

    ``hive``/``kvm``/``bm``/``vm`` point at the first server/guest of
    each kind (the Section 4.1 pair); the list fields carry the full
    population when the builder was asked for more.
    """

    sim: Simulator
    hive: BmHiveServer
    kvm: VirtServer
    bm: BmGuest
    bm_peer: BmGuest
    vm: VmGuest
    vm_peer: VmGuest
    physical: PhysicalMachine
    profile: HardwareProfile = field(default_factory=HardwareProfile.paper)
    hives: List[BmHiveServer] = field(default_factory=list)
    kvms: List[VirtServer] = field(default_factory=list)
    bm_guests: List[BmGuest] = field(default_factory=list)
    vm_guests: List[VmGuest] = field(default_factory=list)


def _guest_letter(index: int) -> str:
    return chr(ord("a") + index) if index < 26 else f"g{index}"


class TestbedBuilder:
    """Fluent construction of arbitrarily shaped testbeds."""

    def __init__(self):
        self._seed = 0
        self._profile: Optional[HardwareProfile] = None
        self._n_servers = 1
        self._guests_per_server = 2
        self._limits: Optional[RateLimits] = None
        self._local_storage = False
        self._blk_queues = 1
        self._net_queue_pairs = 1
        self._backend_workers = 1
        self._passthrough = False
        self._topology = TopologySpec()

    # -- fluent knobs ------------------------------------------------------
    def seed(self, seed: int) -> "TestbedBuilder":
        self._seed = int(seed)
        return self

    def profile(self, profile: Union[HardwareProfile, str]) -> "TestbedBuilder":
        """Use a :class:`HardwareProfile` (or a preset name)."""
        if isinstance(profile, str):
            profile = HardwareProfile.from_name(profile)
        self._profile = profile
        return self

    def servers(self, n: int) -> "TestbedBuilder":
        """Number of BM-Hive servers (and matching KVM servers)."""
        if n < 1:
            raise ValueError(f"need at least one server, got {n}")
        self._n_servers = int(n)
        return self

    def guests_per_server(self, k: int) -> "TestbedBuilder":
        if k < 1:
            raise ValueError(f"need at least one guest per server, got {k}")
        self._guests_per_server = int(k)
        return self

    def limits(self, limits: RateLimits) -> "TestbedBuilder":
        self._limits = limits
        return self

    def local_storage(self, enabled: bool = True) -> "TestbedBuilder":
        self._local_storage = bool(enabled)
        return self

    def queues(self, blk: int = 1, net_pairs: int = 1, workers: int = 1,
               passthrough: bool = False) -> "TestbedBuilder":
        """Shape the multi-queue datapath (see :class:`QueueSpec`)."""
        for label, value in (("blk", blk), ("net_pairs", net_pairs),
                             ("workers", workers)):
            if value < 1:
                raise ValueError(f"{label} must be >= 1, got {value}")
        self._blk_queues = int(blk)
        self._net_queue_pairs = int(net_pairs)
        self._backend_workers = int(workers)
        self._passthrough = bool(passthrough)
        return self

    def topology(self, spec: TopologySpec) -> "TestbedBuilder":
        """Route backend traffic over a multi-hop fabric (see
        :class:`~repro.fabric.topology.TopologySpec`). The default
        (disabled) spec keeps the historical single-hop fabric."""
        if not isinstance(spec, TopologySpec):
            raise TypeError(f"expected a TopologySpec, got {type(spec).__name__}")
        self._topology = spec
        return self

    # -- build -----------------------------------------------------------------
    def build(self) -> Testbed:
        """Construct servers, guests, and the physical reference machine.

        Construction order matches the historical ``make_testbed`` so
        the default shape reproduces its simulator state exactly.
        """
        sim = Simulator(seed=self._seed)
        profile = self._profile or HardwareProfile.paper()
        queue_knobs = (self._blk_queues, self._net_queue_pairs,
                       self._backend_workers, self._passthrough)
        if queue_knobs != (1, 1, 1, False):
            # Only replace when non-default: the untouched preset value
            # keeps the historical object graph (and `profile is` checks)
            # intact for single-queue beds.
            profile = dc_replace(profile, queues=QueueSpec(
                blk_queues=self._blk_queues,
                net_queue_pairs=self._net_queue_pairs,
                backend_workers=self._backend_workers,
                passthrough=self._passthrough,
            ))
        if self._topology.enabled:
            # Same non-default-only rule as queues: a disabled topology
            # leaves the preset profile object untouched, keeping the
            # historical single-hop object graph bit-identical.
            profile = dc_replace(profile, topology=self._topology)
        limits = self._limits or RateLimits.standard()

        hives: List[BmHiveServer] = []
        kvms: List[VirtServer] = []
        bm_guests: List[BmGuest] = []
        vm_guests: List[VmGuest] = []
        fabric = None
        for si in range(self._n_servers):
            hive = BmHiveServer(
                sim, fabric=fabric, name=f"bmhive-{si}",
                local_storage=self._local_storage, profile=profile,
            )
            fabric = fabric or hive.fabric
            hives.append(hive)
            prefix = "bm-guest" if si == 0 else f"bm{si}-guest"
            for gi in range(self._guests_per_server):
                bm_guests.append(hive.launch_guest(
                    name=f"{prefix}-{_guest_letter(gi)}", limits=limits,
                ))
        for si in range(self._n_servers):
            kvm = VirtServer(
                sim, fabric=fabric, name=f"kvm-{si}",
                local_storage=self._local_storage, profile=profile,
            )
            kvms.append(kvm)
            prefix = "vm-guest" if si == 0 else f"vm{si}-guest"
            for gi in range(self._guests_per_server):
                vm_guests.append(kvm.launch_guest(
                    name=f"{prefix}-{_guest_letter(gi)}", limits=limits,
                    pinned=True,
                ))
        physical = PhysicalMachine(sim)

        # The canonical pair accessors need at least two of each; with a
        # single guest per server the peer aliases the first guest.
        return Testbed(
            sim=sim,
            hive=hives[0], kvm=kvms[0],
            bm=bm_guests[0], bm_peer=bm_guests[min(1, len(bm_guests) - 1)],
            vm=vm_guests[0], vm_peer=vm_guests[min(1, len(vm_guests) - 1)],
            physical=physical, profile=profile,
            hives=hives, kvms=kvms,
            bm_guests=bm_guests, vm_guests=vm_guests,
        )


def boot_testbed(bed: Testbed) -> Testbed:
    """Boot every bm-guest from :data:`DEFAULT_BOOT_IMAGE` through the
    full firmware/IO-Bond machinery.

    Each boot runs the Fig 6 path (firmware virtio-blk reads,
    shadow-vring service, cloud-storage round trips) and costs
    thousands of kernel events. Afterwards the simulation is drained to
    quiescence — every poll loop parked — which is the precondition for
    :meth:`~repro.sim.Simulator.snapshot`. (Draining requires doorbell
    idle-skip; when a test selects busy polling with
    ``set_idle_skip_default(False)`` the loops never quiesce, so the
    drain is skipped.)
    """
    image = VmImage(name=DEFAULT_BOOT_IMAGE)
    for hive in bed.hives:
        for guest in hive.guests:
            bed.sim.run_process(hive.boot_guest(guest, image))
    if idle_skip_default():
        bed.sim.run()
    return bed


def make_testbed(seed: int = 0, limits: Optional[RateLimits] = None,
                 local_storage: bool = False,
                 profile: Optional[HardwareProfile] = None) -> Testbed:
    """Build the Section 4.1 environment: bm pair, vm pair, physical.

    Guests are launched but not booted: the evaluation measures guests
    that are already running.
    """
    builder = TestbedBuilder().seed(seed).local_storage(local_storage)
    if limits is not None:
        builder.limits(limits)
    if profile is not None:
        builder.profile(profile)
    return builder.build()
