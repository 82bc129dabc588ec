"""Fault plans: frozen, seedable schedules of infrastructure faults.

A :class:`FaultPlan` is configuration, not mechanism: it names which
fault hits which component at which simulated time, and nothing runs
until a :class:`~repro.faults.injector.FaultInjector` arms it against
a testbed. Plans are frozen dataclasses (hashable, JSON round-trip)
so they can be written into reports and replayed from them.
:class:`repro.chaos.campaign.CampaignGenerator` draws the random
plans that chaos campaigns run.

Determinism rules
-----------------
* A plan is data — two runs armed with the same seed and the same plan
  replay the identical fault schedule, trace events, and final clock.
* ``FaultPlan.none()`` schedules nothing and draws nothing: arming it
  is bit-identical to not constructing an injector at all.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Tuple

__all__ = ["FAULT_KINDS", "BACKEND_TARGETS", "FABRIC_KINDS",
           "REGION_KINDS", "FaultSpec", "FaultPlan"]

# The fault taxonomy, one kind per failable layer (DESIGN.md §7, §12):
#   pcie_flap          hw/pcie      link down + retrain delay
#   dma_stall          iobond       DMA engine frozen for a window
#   mailbox_timeout    iobond       forwarded PCI accesses miss their ack
#   hypervisor_crash   hypervisor   the per-guest backend process dies
#   backend_disconnect backend      vSwitch/SPDK vhost-user session drop
#   brownout           backend      token-bucket rates scaled down
#   link_flap          fabric       one fabric link down for a window
#   switch_crash       fabric       a ToR/spine dies with all its links
#   rack_power         region       every server in one rack loses power
#   tor_down           region       a rack's ToR dies (fabric crash +
#                                    rack-wide remediation)
#   correlated_board_hang region    all boards of one server hang at once
FAULT_KINDS = (
    "pcie_flap",
    "dma_stall",
    "mailbox_timeout",
    "hypervisor_crash",
    "backend_disconnect",
    "brownout",
    "link_flap",
    "switch_crash",
    "rack_power",
    "tor_down",
    "correlated_board_hang",
)

# backend_disconnect targets name a backend, not a guest.
BACKEND_TARGETS = ("vswitch", "storage")

# Fabric-scoped kinds target a link name ("a|b", sorted endpoints) or
# a switch name ("tor-N"/"spine-N") on the server's FabricNetwork —
# never a guest. Their blast radius is the shared fabric: every
# co-tenant's remote traffic may legitimately shift, so the
# differential oracle treats no guest as protected under them (the
# fabric invariant monitors carry the correctness claim instead).
FABRIC_KINDS = ("link_flap", "switch_crash")

# Region-scoped kinds are *correlated* faults: one spec takes down a
# whole rack ("rack-N"), a rack's ToR ("tor-N"), or every board of one
# server at once. They are delivered by :class:`repro.fleet.region.
# Region` (which owns the rack→server mapping and the remediation
# pipeline), not by the single-server FaultInjector — except
# ``tor_down``, whose fabric half maps onto ``FabricNetwork.
# crash_switch`` and therefore also works on a testbed with a routed
# fabric.
REGION_KINDS = ("rack_power", "tor_down", "correlated_board_hang")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``target`` names the victim: a guest for guest-scoped kinds
    (``pcie_flap`` flaps that guest's device link, ``hypervisor_crash``
    kills its backend process), or ``"vswitch"``/``"storage"`` for
    ``backend_disconnect``. ``param`` is the kind-specific knob:
    mailbox retransmission penalty (seconds), brownout rate factor
    (0 < f < 1), or the ``pcie_flap`` port name is carried in
    ``port`` instead.
    """

    kind: str
    target: str
    at_s: float
    duration_s: float = 0.0
    param: float = 0.0
    port: str = "blk"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ValueError(f"unknown fault kind {self.kind!r}; kinds: {known}")
        if not self.target:
            raise ValueError("fault target must be non-empty")
        if self.at_s < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at_s}")
        if self.duration_s < 0:
            raise ValueError(f"fault duration must be >= 0, got {self.duration_s}")
        if self.kind == "brownout" and not 0.0 < self.param <= 1.0:
            raise ValueError(
                f"brownout needs a rate factor in (0, 1], got {self.param}"
            )
        if self.kind == "mailbox_timeout" and self.param < 0:
            raise ValueError(f"mailbox penalty must be >= 0, got {self.param}")
        if self.kind == "backend_disconnect" and self.target not in BACKEND_TARGETS:
            known = ", ".join(BACKEND_TARGETS)
            raise ValueError(
                f"backend_disconnect target must be one of {known}, "
                f"got {self.target!r}"
            )
        if self.kind == "link_flap" and "|" not in self.target:
            raise ValueError(
                f"link_flap target must be a fabric link name 'a|b', "
                f"got {self.target!r}"
            )
        if self.kind == "switch_crash" and "|" in self.target:
            raise ValueError(
                f"switch_crash target must be a switch name, not a link, "
                f"got {self.target!r}"
            )
        if self.kind == "rack_power" and not self.target.startswith("rack-"):
            raise ValueError(
                f"rack_power target must be a rack name 'rack-N', "
                f"got {self.target!r}"
            )
        if self.kind == "tor_down" and not self.target.startswith("tor-"):
            raise ValueError(
                f"tor_down target must be a ToR name 'tor-N', "
                f"got {self.target!r}"
            )
        if self.kind == "correlated_board_hang" and (
                "|" in self.target
                or self.target.startswith(("rack-", "tor-", "spine-"))):
            raise ValueError(
                f"correlated_board_hang target must be a server name, "
                f"got {self.target!r}"
            )

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSpec":
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults, ordered by injection time."""

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: arming it is bit-identical to no faults."""
        return cls()

    @classmethod
    def of(cls, *faults: FaultSpec) -> "FaultPlan":
        return cls(faults=tuple(faults))

    def schedule(self) -> Tuple[FaultSpec, ...]:
        """Faults in injection order (stable for equal times)."""
        return tuple(sorted(self.faults, key=lambda f: f.at_s))

    def for_kind(self, kind: str) -> Tuple[FaultSpec, ...]:
        return tuple(f for f in self.schedule() if f.kind == kind)

    def for_target(self, target: str) -> Tuple[FaultSpec, ...]:
        return tuple(f for f in self.schedule() if f.target == target)

    def without(self, *indices: int) -> "FaultPlan":
        """A copy with the faults at ``indices`` (into ``faults``) removed.

        The shrinker's primitive operation: dropping faults can only
        remove behavior, so the remaining schedule is always valid.
        """
        drop = set(indices)
        return FaultPlan(faults=tuple(
            f for i, f in enumerate(self.faults) if i not in drop
        ))

    def replacing(self, index: int, spec: FaultSpec) -> "FaultPlan":
        """A copy with the fault at ``index`` swapped for ``spec``."""
        faults = list(self.faults)
        faults[index] = spec
        return FaultPlan(faults=tuple(faults))

    def describe(self) -> str:
        """One line per fault, in injection order (reports, shrinker logs)."""
        if not self.faults:
            return "(no faults)"
        return "\n".join(
            f"{f.at_s * 1e3:9.3f} ms  {f.kind:<19s} {f.target}"
            + (f"  dur={f.duration_s * 1e3:.3f} ms" if f.duration_s else "")
            + (f"  param={f.param:g}" if f.param else "")
            for f in self.schedule()
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict:
        return {"faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        return cls(faults=tuple(
            FaultSpec.from_dict(f) for f in data.get("faults", ())
        ))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))
