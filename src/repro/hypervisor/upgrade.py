"""Live upgrade of the bm-hypervisor (Section 6, via Orthus).

"The design of BM-Hive makes it straightforward to apply the live
upgrade approach proposed in Orthus [ASPLOS'19] because it is mostly a
subset of the full VMM software stack."

The upgrade swaps the user-space bm-hypervisor process under a running
guest without halting it: quiesce the workers, capture the
shadow-vring cursors and device state, build the new process with that
state (:meth:`HypervisorState.respawn`, which crash restart in
:mod:`repro.faults.supervisor` uses too), resume. The guest only observes a brief service gap on its virtio
backends — no reboot, no reconnection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hypervisor.bm import BmHypervisor, BmHypervisorSpec, GuestState
from repro.iobond.bond import IoBond

__all__ = ["HypervisorState", "LiveUpgradeRecord", "live_upgrade"]

QUIESCE_S = 2e-3      # drain in-flight backend work
EXEC_NEW_BUILD_S = 60e-3  # fork+exec the new binary, map hugepages
RESTORE_S = 1e-3      # replay cursors, re-arm the poll loop


@dataclass
class HypervisorState:
    """Serialized bm-hypervisor state handed across a restart or upgrade."""

    guest_name: str
    guest_state: GuestState
    ring_cursors: Dict[str, Dict[str, int]]
    spec: BmHypervisorSpec
    passthrough: bool
    version: str
    handlers: Dict = field(default_factory=dict)

    @classmethod
    def capture(cls, hypervisor: BmHypervisor) -> "HypervisorState":
        cursors: Dict[str, Dict[str, int]] = {}
        for port_name, port in hypervisor.bond.ports.items():
            for queue_index, shadow in port.shadows.items():
                cursors[f"{port_name}.q{queue_index}"] = {
                    "head": shadow.registers.head,
                    "tail": shadow.registers.tail,
                }
        return cls(
            guest_name=hypervisor.guest_name,
            guest_state=hypervisor.state,
            ring_cursors=cursors,
            spec=hypervisor.spec,
            passthrough=hypervisor.passthrough,
            version=hypervisor.version,
            handlers=hypervisor.handlers(),
        )

    def respawn(self, sim, bond: IoBond,
                version: Optional[str] = None) -> BmHypervisor:
        """Build the replacement process against ``bond``; do not start it.

        The replacement keeps the captured spec, layout and version
        (``version`` overrides the last, for an upgrade), and gets the
        captured life-cycle state, cursors and handlers back.

        Cursors are written back explicitly: when the replacement runs
        against the same IO-Bond the writes are no-ops (the registers
        live in the device), but a rebuilt bond — crash recovery with a
        re-initialized board, board swap — starts from zeroed registers
        and would otherwise silently lose the ring positions.
        """
        hypervisor = BmHypervisor(
            sim, bond, guest_name=self.guest_name, spec=self.spec,
            passthrough=self.passthrough, version=version or self.version,
        )
        hypervisor.state = self.guest_state
        for key, cursor in self.ring_cursors.items():
            port_name, _, queue_index = key.rpartition(".q")
            shadow = bond.port(port_name).shadow(int(queue_index))
            registers = shadow.registers
            # Cursors are monotonic counters, so max() restores a zeroed
            # (rebuilt) register file without rewinding a shared one that
            # advanced while the new build was exec'ing — IO-Bond keeps
            # publishing guest kicks during that window.
            registers.head = max(registers.head, cursor["head"])
            registers.tail = max(registers.tail, cursor["tail"])
        for key, handler in self.handlers.items():
            hypervisor.register_handler(key[0], key[1], handler)
        return hypervisor


@dataclass
class LiveUpgradeRecord:
    """Outcome of one live hypervisor upgrade."""

    guest_name: str
    old_version: str
    new_version: str
    service_gap_s: float
    guest_stayed_running: bool
    cursors_preserved: bool


def live_upgrade(sim, hypervisor: BmHypervisor, new_version: str = "2.0"):
    """Process: replace a guest's bm-hypervisor process in place.

    Returns ``(new_hypervisor, LiveUpgradeRecord)``. The guest's board
    never power-cycles and its rings keep their positions.
    """
    if hypervisor.state is GuestState.STOPPED:
        raise RuntimeError("nothing to upgrade: the guest is stopped")
    start = sim.now

    # 1. Quiesce: stop the workers after they drain current entries.
    yield sim.timeout(QUIESCE_S)
    hypervisor.stop()
    state = HypervisorState.capture(hypervisor)

    # 2. Launch the new build against the same IO-Bond, carrying the
    #    captured state over.
    yield sim.timeout(EXEC_NEW_BUILD_S)
    replacement = state.respawn(sim, hypervisor.bond, version=new_version)

    # 3. Resume polling.
    yield sim.timeout(RESTORE_S)
    if replacement.state is GuestState.RUNNING:
        replacement.start()

    cursors_after = HypervisorState.capture(replacement).ring_cursors
    record = LiveUpgradeRecord(
        guest_name=hypervisor.guest_name,
        old_version=hypervisor.version,
        new_version=new_version,
        service_gap_s=sim.now - start,
        guest_stayed_running=state.guest_state is GuestState.RUNNING,
        cursors_preserved=cursors_after == state.ring_cursors,
    )
    return replacement, record
