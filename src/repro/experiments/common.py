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
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.backend.limits import RateLimits
from repro.config.profile import HardwareProfile, QueueSpec
from repro.fabric.topology import TopologySpec
from repro.core.guests import BmGuest, PhysicalMachine, VmGuest
from repro.core.server import BmHiveServer, VirtServer
from repro.guest.image import VmImage
from repro.sim import KernelSnapshot, Simulator, SnapshotError, idle_skip_default

__all__ = [
    "Testbed",
    "TestbedBuilder",
    "TestbedConfig",
    "TestbedSnapshot",
    "make_testbed",
    "boot_testbed",
    "snapshot_testbed",
    "restore_testbed",
    "warm_testbed",
    "load_warm_cache",
    "export_warm_cache",
    "clear_warm_cache",
    "DEFAULT_WARM_IMAGE",
]

#: Image every warm-start boot uses; deterministic synthetic content.
DEFAULT_WARM_IMAGE = "warm-base"


@dataclass(frozen=True)
class TestbedConfig:
    """Picklable construction recipe for a :class:`Testbed`.

    This is the *identity* of a warm-start snapshot: two testbeds built
    from equal configs are object-for-object identical, so a kernel
    snapshot taken on one can be restored into the other. Profiles are
    referenced by preset name (a live :class:`HardwareProfile` does not
    travel over a worker pipe); ``image_name`` names the deterministic
    :class:`~repro.guest.image.VmImage` the boot reads.
    """

    seed: int = 0
    profile_name: Optional[str] = None
    n_servers: int = 1
    guests_per_server: int = 2
    limits: RateLimits = field(default_factory=RateLimits.standard)
    local_storage: bool = False
    image_name: str = DEFAULT_WARM_IMAGE
    # Multi-queue datapath shape (QueueSpec knobs, flattened so the
    # config stays a plain picklable value). Defaults reproduce the
    # single-ring wiring bit-for-bit.
    blk_queues: int = 1
    net_queue_pairs: int = 1
    backend_workers: int = 1
    passthrough: bool = False
    # Fabric shape (frozen dataclass of plain scalars, so it pickles
    # and hashes like every other field). The disabled default keeps
    # old configs equal to new ones and the single-hop fabric intact.
    topology: TopologySpec = field(default_factory=TopologySpec)


@dataclass
class TestbedSnapshot:
    """A booted testbed, frozen: rebuild recipe + kernel state.

    Produced by :func:`snapshot_testbed`, consumed by
    :func:`restore_testbed`. Everything inside is plain data (dataclass
    of ints/strings/dicts), so it pickles across the worker pool —
    ship it once, and every shard warm-starts without paying the boot.
    """

    config: TestbedConfig
    kernel: KernelSnapshot


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
    config: Optional[TestbedConfig] = None


def _guest_letter(index: int) -> str:
    return chr(ord("a") + index) if index < 26 else f"g{index}"


class TestbedBuilder:
    """Fluent construction of arbitrarily shaped testbeds."""

    def __init__(self):
        self._seed = 0
        self._profile: Optional[HardwareProfile] = None
        self._profile_name: Optional[str] = None
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
            self._profile_name = profile
            profile = HardwareProfile.from_name(profile)
        else:
            # A live instance has no portable identity; to_config()
            # rejects it so warm-start snapshots stay unambiguous.
            self._profile_name = None
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

    # -- config round-trip -------------------------------------------------
    def to_config(self, image_name: str = DEFAULT_WARM_IMAGE) -> TestbedConfig:
        """Freeze this builder into a picklable :class:`TestbedConfig`."""
        if self._profile is not None and self._profile_name is None:
            raise ValueError(
                "warm-start configs need a *named* profile preset "
                "(builder.profile('paper'|'asic'|'gen4')); a custom "
                "HardwareProfile instance cannot travel in a snapshot")
        return TestbedConfig(
            seed=self._seed,
            profile_name=self._profile_name,
            n_servers=self._n_servers,
            guests_per_server=self._guests_per_server,
            limits=self._limits or RateLimits.standard(),
            local_storage=self._local_storage,
            image_name=image_name,
            blk_queues=self._blk_queues,
            net_queue_pairs=self._net_queue_pairs,
            backend_workers=self._backend_workers,
            passthrough=self._passthrough,
            topology=self._topology,
        )

    @classmethod
    def from_config(cls, config: TestbedConfig) -> "TestbedBuilder":
        """Rebuild the builder a config came from."""
        builder = (cls()
                   .seed(config.seed)
                   .servers(config.n_servers)
                   .guests_per_server(config.guests_per_server)
                   .limits(config.limits)
                   .local_storage(config.local_storage)
                   .queues(blk=config.blk_queues,
                           net_pairs=config.net_queue_pairs,
                           workers=config.backend_workers,
                           passthrough=config.passthrough)
                   .topology(config.topology))
        if config.profile_name is not None:
            builder.profile(config.profile_name)
        return builder

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

        try:
            config = self.to_config()
        except ValueError:
            config = None  # custom profile instance: not snapshot-able

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
            config=config,
        )


def boot_testbed(bed: Testbed, image_name: str = DEFAULT_WARM_IMAGE) -> Testbed:
    """Boot every bm-guest through the full firmware/IO-Bond machinery.

    This is the expensive part a warm start amortizes: each boot runs
    the Fig 6 path (firmware virtio-blk reads, shadow-vring service,
    cloud-storage round trips) and costs thousands of kernel events.
    Afterwards the simulation is drained to quiescence — every poll
    loop parked — which is the precondition for
    :func:`snapshot_testbed`. (Draining requires doorbell idle-skip;
    when a test selects busy polling with ``set_idle_skip_default(False)``
    the loops never quiesce, so the drain is skipped and the bed cannot
    be snapshot.)
    """
    image = VmImage(name=image_name)
    for hive in bed.hives:
        for guest in hive.guests:
            bed.sim.run_process(hive.boot_guest(guest, image))
    if idle_skip_default():
        bed.sim.run()
    return bed


def snapshot_testbed(bed: Testbed) -> TestbedSnapshot:
    """Freeze a booted, quiescent testbed into plain data."""
    if bed.config is None:
        raise SnapshotError(
            "testbed was built from a custom HardwareProfile instance; "
            "only preset-named configs can be snapshot (they must be "
            "rebuildable from plain data)")
    return TestbedSnapshot(config=bed.config, kernel=bed.sim.snapshot())


def restore_testbed(snapshot: TestbedSnapshot) -> Testbed:
    """Rebuild a testbed shell and adopt a booted snapshot.

    The three-step rebuild protocol (see :mod:`repro.sim.snapshot`):
    build the identical object graph from the config, re-apply the
    structural post-boot wiring (:meth:`BmHiveServer.attach_booted_guest`)
    and run the fresh shell to quiescence so its poll loops park, then
    hand the kernel snapshot to :meth:`~repro.sim.Simulator.restore`.
    From that point the simulation evolves bit-identically to the
    booted original.
    """
    if not idle_skip_default():
        raise SnapshotError(
            "warm start requires doorbell idle-skip: "
            "busy-poll loops never reach the quiescent point a restore "
            "needs")
    bed = TestbedBuilder.from_config(snapshot.config).build()
    image = VmImage(name=snapshot.config.image_name)
    for hive in bed.hives:
        for guest in hive.guests:
            hive.attach_booted_guest(guest, image)
    bed.sim.run()  # one empty drain pass per poll loop -> all parked at t=0
    bed.sim.restore(snapshot.kernel)
    return bed


# Process-wide snapshot cache. Keyed by config, so one boot serves
# every warm start with the same recipe — including across jobs inside
# one pool worker (the first job ships the snapshot, later jobs hit
# the cache).
_WARM_CACHE: Dict[TestbedConfig, TestbedSnapshot] = {}


def warm_testbed(config: TestbedConfig) -> Testbed:
    """Warm-start a testbed: restore from cache, booting at most once."""
    snapshot = _WARM_CACHE.get(config)
    if snapshot is None:
        cold = boot_testbed(TestbedBuilder.from_config(config).build(),
                            image_name=config.image_name)
        snapshot = snapshot_testbed(cold)
        _WARM_CACHE[config] = snapshot
    return restore_testbed(snapshot)


def load_warm_cache(snapshots: Iterable[TestbedSnapshot]) -> None:
    """Adopt pre-computed snapshots (e.g. shipped to a pool worker)."""
    for snapshot in snapshots:
        _WARM_CACHE.setdefault(snapshot.config, snapshot)


def export_warm_cache() -> Tuple[TestbedSnapshot, ...]:
    """The current cache contents, in insertion order (picklable)."""
    return tuple(_WARM_CACHE.values())


def clear_warm_cache() -> None:
    _WARM_CACHE.clear()


def make_testbed(seed: int = 0, limits: Optional[RateLimits] = None,
                 local_storage: bool = False,
                 profile: Optional[HardwareProfile] = None,
                 mode: str = "fast") -> Testbed:
    """Build the Section 4.1 environment: bm pair, vm pair, physical.

    ``mode`` selects how much start-up fidelity the caller pays:

    * ``"fast"`` (default) — guests are launched but never booted; the
      historical behavior every golden event count is pinned to.
    * ``"booted"`` — additionally boot every bm-guest through the real
      rings (cold full-fidelity start).
    * ``"warm"`` — restore a ``"booted"`` testbed from the process-wide
      snapshot cache, booting only on the first use of a config. The
      returned bed is bit-identical in future evolution to a
      ``"booted"`` one, for thousands fewer events per run.
    """
    builder = TestbedBuilder().seed(seed).local_storage(local_storage)
    if limits is not None:
        builder.limits(limits)
    if profile is not None:
        builder.profile(profile)
    if mode == "fast":
        return builder.build()
    if mode == "booted":
        return boot_testbed(builder.build())
    if mode == "warm":
        return warm_testbed(builder.to_config())
    raise ValueError(f"unknown testbed mode {mode!r}; "
                     "expected 'fast', 'booted', or 'warm'")
