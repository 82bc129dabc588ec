"""Shape of the datacenter fabric, as configuration.

:class:`TopologySpec` is a frozen spec dataclass in the
:mod:`repro.config` mold: it rides on :class:`~repro.config.profile.
HardwareProfile` (and through ``TestbedBuilder.topology``), renders
to a plain dict for report headers, and is validated on construction.

The default is the *single-hop* fabric (``n_racks=0``): no
:class:`~repro.fabric.network.FabricNetwork` is built, no routing
tables exist, and the legacy :class:`~repro.backend.fabric.Fabric`
paths run untouched — the pre-topology object graph and event stream
stay byte-identical. Any ``n_racks > 0`` builds a two-tier Clos: every
rack's ToR uplinks to every spine, and the storage cluster frontend
hangs off every spine, so a single link or spine loss leaves a
redundant path.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TopologySpec"]


@dataclass(frozen=True)
class TopologySpec:
    """Clos fabric shape plus the transfer retry envelope.

    ``n_racks=0`` (the default) disables the multi-hop fabric
    entirely. Bandwidths are per link and direction; latencies are per
    link traversal (``link_latency_s``) and per switch transited
    (``switch_latency_s``). ``max_retries``/``retry_backoff_s`` bound
    how long an in-flight transfer keeps rerouting before giving up
    with :class:`~repro.virtio.reliability.RetryExhausted` — backoff is
    exponential, capped at ``retry_backoff_cap_s``, with seeded jitter
    drawn from the ``fabric.backoff`` stream only when a retry actually
    happens (fault-free runs draw nothing).
    """

    n_racks: int = 0
    n_spines: int = 2
    host_link_gbps: float = 100.0
    tor_uplink_gbps: float = 400.0
    storage_link_gbps: float = 400.0
    link_latency_s: float = 1e-6
    switch_latency_s: float = 2e-6
    max_retries: int = 12
    retry_backoff_s: float = 50e-6
    retry_backoff_cap_s: float = 2e-3

    def __post_init__(self):
        if self.n_racks < 0:
            raise ValueError(f"n_racks must be >= 0, got {self.n_racks}")
        if self.n_racks > 253:
            # Rack r owns 10.r.0.0/16; 254/255 are storage/spine nets.
            raise ValueError(f"n_racks must be <= 253, got {self.n_racks}")
        if self.n_spines < 1:
            raise ValueError(f"n_spines must be >= 1, got {self.n_spines}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.retry_backoff_s <= 0:
            raise ValueError(
                f"retry_backoff_s must be > 0, got {self.retry_backoff_s}")
        if self.retry_backoff_cap_s < self.retry_backoff_s:
            raise ValueError(
                f"retry_backoff_cap_s must be >= retry_backoff_s, got "
                f"{self.retry_backoff_cap_s} < {self.retry_backoff_s}")
        if self.link_latency_s <= 0 or self.switch_latency_s < 0:
            raise ValueError("fabric latencies must be positive")

    @property
    def enabled(self) -> bool:
        """Whether a multi-hop fabric is built at all."""
        return self.n_racks > 0

    @classmethod
    def single_hop(cls) -> "TopologySpec":
        """The disabled default: the legacy one-hop fabric."""
        return cls()

    @classmethod
    def clos(cls, n_racks: int = 2, n_spines: int = 2) -> "TopologySpec":
        """A small two-tier Clos with redundant spine paths."""
        return cls(n_racks=n_racks, n_spines=n_spines)
