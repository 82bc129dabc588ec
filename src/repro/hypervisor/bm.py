"""The bm-hypervisor: per-guest user-space backend process.

"The bm-hypervisor, which is also a user-space process similar to
vm-hypervisor, is responsible for managing the life cycle of bm-guests
(e.g., assignment, creation, and destruction), providing the backend
support for virtio devices, and interfacing with the cloud
infrastructure... Every bm-hypervisor process provides service to one
bm-guest only" (Section 3.2). Crucially it virtualizes *nothing*: no
CPU, no memory, no instruction emulation — its whole data plane is
polling IO-Bond's mailbox and shadow-vring registers.

That polling is one worker body laid out two ways: one worker for the
mailbox and every queue (mediated), or a mailbox worker plus one worker
per queue (passthrough). Because the process holds nothing the device
does not, crash restart and live upgrade both rebuild it through
:meth:`repro.hypervisor.upgrade.HypervisorState.respawn`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.iobond.bond import IoBond
from repro.sim.doorbell import Doorbell
from repro.sim.events import Interrupt

__all__ = ["BmHypervisorSpec", "BmHypervisor", "GuestState"]


class GuestState(enum.Enum):
    UNASSIGNED = "unassigned"
    POWERED_ON = "powered_on"
    BOOTING = "booting"
    RUNNING = "running"
    STOPPED = "stopped"


@dataclass(frozen=True)
class BmHypervisorSpec:
    """Timing of the poll-mode service loop."""

    poll_interval_s: float = 1e-6       # dedicated thread spin cadence
    request_handling_s: float = 50e-9   # per shadow-vring entry (batched, DPDK-grade)
    pci_emulation_s: float = 0.5e-6     # software side of a forwarded access


class BmHypervisor:
    """One bm-guest's backend process on the base server.

    The data plane is one worker body, :meth:`_serve`, mirroring the
    dedicated polling thread: drain the mailbox (forwarded PCI
    accesses) if this worker owns it, then drain its shadow vrings,
    handing entries to per-queue handlers (the DPDK/SPDK glue installed
    by the server layer), and park on its doorbell when a pass finds
    nothing. Two layouts run that body:

    * mediated (default): one worker, ``bmhv.<guest>``, owns the
      mailbox and every registered queue in registration order, so
      backend round-trips serialize across queues;
    * passthrough: a mailbox worker, ``bmhv.<guest>.mailbox``, plus one
      worker per ``(port, queue)``, ``bmhv.<guest>.<port>.q<i>``, each
      parked on its own doorbell, so queues overlap their backend
      round-trips (the I/O-queues-passthrough design the mq_ablation
      experiment quantifies).
    """

    def __init__(self, sim, bond: IoBond, guest_name: str,
                 spec: BmHypervisorSpec = BmHypervisorSpec(),
                 passthrough: bool = False, version: str = "1.0"):
        self.sim = sim
        self.bond = bond
        self.guest_name = guest_name
        self.spec = spec
        self.passthrough = passthrough
        self.version = version
        self.state = GuestState.UNASSIGNED
        # (port, queue_index) -> handler(entry) -> generator | None
        self._handlers: Dict[Tuple[str, int], Callable] = {}
        # Registered queues in registration order, each paired with its
        # port's shadow dict (IO-Bond creates shadows lazily on the
        # first guest kick). The mediated worker walks this list.
        self._queues: List[Tuple[Tuple[str, int], dict]] = []
        # Idle-skip doorbells: producers (mailbox posts, shadow-vring
        # publishes) ring them so an idle worker never has to spin.
        # ``doorbell`` wakes the worker that owns the mailbox; in
        # passthrough each queue's publishes ring its own bell instead.
        self.doorbell = Doorbell(sim, spec.poll_interval_s)
        self.queue_doorbells: Dict[Tuple[str, int], Doorbell] = {}
        # The process table: worker name -> running worker process.
        self.workers: Dict[str, object] = {}
        # Per-queue service counter, maintained in both layouts.
        self.queue_entries_handled: Dict[Tuple[str, int], int] = {}
        # Service generators the workers are currently driving; a
        # crash kills these with the process (their work is lost and
        # must be replayed), while a clean stop() lets them finish.
        self._service_processes = set()
        self.entries_handled = 0
        self.pci_requests_handled = 0
        self.crashed = False
        # Fired with this hypervisor after a crash; the fault
        # supervisor subscribes to drive detection/restart.
        self.on_crash: Optional[Callable[["BmHypervisor"], None]] = None
        # Snapshot rebuild protocol: a rebuilt server re-creates this
        # hypervisor under the same guest name, so the key collides on
        # purpose (register_participant is last-writer-wins).
        sim.register_participant(f"bmhv:{guest_name}", self)

    # -- life cycle -----------------------------------------------------------
    def power_on(self, board) -> None:
        """Turn on the guest's compute board through the PCIe interface."""
        if self.state not in (GuestState.UNASSIGNED, GuestState.STOPPED):
            raise RuntimeError(f"cannot power on from state {self.state}")
        board.power_on()
        self.state = GuestState.POWERED_ON

    def mark_booting(self) -> None:
        if self.state is not GuestState.POWERED_ON:
            raise RuntimeError(f"cannot boot from state {self.state}")
        self.state = GuestState.BOOTING

    def mark_running(self) -> None:
        if self.state is not GuestState.BOOTING:
            raise RuntimeError(f"cannot run from state {self.state}")
        self.state = GuestState.RUNNING

    def power_off(self, board) -> None:
        if self.state in (GuestState.UNASSIGNED, GuestState.STOPPED):
            raise RuntimeError(f"cannot power off from state {self.state}")
        board.power_off()
        self.state = GuestState.STOPPED

    @property
    def is_polling(self) -> bool:
        """Whether any data-plane worker is alive."""
        return any(p.is_alive for p in self.workers.values())

    # -- data plane ---------------------------------------------------------------
    def handlers(self) -> Dict[Tuple[str, int], Callable]:
        """Installed virtqueue handlers, keyed ``(port_name, queue_index)``.

        Returns a copy: handler installation must go through
        :meth:`register_handler` so the doorbell wiring stays correct.
        This is the supported way for state capture (live upgrade,
        crash recovery) to enumerate the data plane.
        """
        return dict(self._handlers)

    def register_handler(self, port_name: str, queue_index: int,
                         handler: Callable) -> None:
        """Install the backend handler for one virtqueue.

        ``handler(entry)`` may return a generator, which the worker
        drives inline (e.g. forwarding a burst into the vSwitch). A
        queue registered while the hypervisor runs is served at once:
        the mediated worker picks it up on its next pass, and
        passthrough spawns its worker.
        """
        key = (port_name, queue_index)
        port = self.bond.port(port_name)
        is_new = key not in self._handlers
        self._handlers[key] = handler
        self.queue_entries_handled.setdefault(key, 0)
        if is_new:
            queue = (key, port.shadows)
            self._queues.append(queue)
            if self.passthrough:
                self.queue_doorbells[key] = Doorbell(
                    self.sim, self.spec.poll_interval_s)
                if self.workers:
                    self._spawn_queue_worker(queue)
        # Wire the doorbell into this queue's shadow vring, including
        # shadows that do not exist yet: the port's hook claims each new
        # shadow for the live worker (see _claim_shadow).
        ring = self._ring_for(key)
        shadow = port.shadows.get(queue_index)
        if shadow is not None:
            shadow.on_publish = ring
            if shadow.registers.pending > 0:
                ring()
        port.on_shadow_created = functools.partial(
            self._claim_shadow, port_name)

    def _ring_for(self, key: Tuple[str, int]) -> Optional[Callable]:
        """The doorbell a publish on queue ``key`` rings, if it has one.

        Mediated mode rings the shared bell for every queue of a port
        with a handler; passthrough rings the queue's own bell, so a
        publish wakes only the worker that owns the queue.
        """
        if not self.passthrough:
            return self.doorbell.ring
        bell = self.queue_doorbells.get(key)
        return None if bell is None else bell.ring

    def _claim_shadow(self, port_name: str, shadow) -> None:
        """A port's shadow-created hook: wire the new shadow's doorbell.

        Each registration sets (never chains) this hook, so a respawned
        hypervisor replaces the dead one's hook instead of stacking on it.
        """
        ring = self._ring_for((port_name, shadow.queue_index))
        if ring is not None:
            shadow.on_publish = ring

    def start(self) -> None:
        """Spawn the workers of this hypervisor's layout."""
        if self.workers:
            raise RuntimeError("poll loop already started")
        mailbox = self.bond.mailbox
        mailbox.on_post = self.doorbell.ring
        name = f"bmhv.{self.guest_name}"
        if not self.passthrough:
            self._spawn(name, self.doorbell, self._queues, mailbox)
            return
        self._spawn(f"{name}.mailbox", self.doorbell, (), mailbox)
        for queue in self._queues:
            self._spawn_queue_worker(queue)

    def _spawn_queue_worker(self, queue) -> None:
        key = queue[0]
        port_name, queue_index = key
        self._spawn(f"bmhv.{self.guest_name}.{port_name}.q{queue_index}",
                    self.queue_doorbells[key], (queue,))

    def _spawn(self, name: str, bell: Doorbell, queues, mailbox=None) -> None:
        self.workers[name] = self.sim.spawn(
            self._serve(bell, queues, mailbox), name=name)

    def _serve(self, bell: Doorbell, queues, mailbox):
        """Process: one worker (runs until interrupted).

        Drains ``mailbox`` (None if another worker owns it), then each
        of ``queues`` in order, and parks on ``bell`` after a pass that
        found no work.
        """
        sim = self.sim
        spec = self.spec
        handlers = self._handlers
        counts = self.queue_entries_handled
        try:
            while True:
                busy = False
                # Forwarded PCI accesses land in the mailbox; the
                # response side of the emulation costs software time.
                if mailbox is not None:
                    while mailbox.poll_request() is not None:
                        yield sim.timeout(spec.pci_emulation_s)
                        self.pci_requests_handled += 1
                        busy = True
                for key, shadows in queues:
                    shadow = shadows.get(key[1])
                    if shadow is None:
                        continue
                    handler = handlers[key]
                    while True:
                        entry = shadow.backend_poll()
                        if entry is None:
                            break
                        yield sim.timeout(spec.request_handling_s)
                        result = handler(entry)
                        if result is not None and hasattr(result, "send"):
                            service = sim.spawn(result)
                            self._service_processes.add(service)
                            try:
                                yield service
                            finally:
                                self._service_processes.discard(service)
                        self.entries_handled += 1
                        counts[key] += 1
                        busy = True
                if not busy:
                    # A clean drain pass consumes no simulated time, so
                    # the park anchors on a time the busy-poll grid
                    # would reach.
                    yield bell.park()
        except Interrupt:
            return

    # -- snapshot rebuild protocol ---------------------------------------------
    def snapshot_state(self) -> dict:
        """Life-cycle position, service counters, and the poll grid(s).

        Per-queue state travels under string keys (``"port:index"``) so
        the dict stays plainly picklable; a rebuilt shell registers the
        same handlers, so the keys match on restore.
        """
        return {
            "state": self.state.value,
            "entries_handled": self.entries_handled,
            "pci_requests_handled": self.pci_requests_handled,
            "crashed": self.crashed,
            "doorbell": self.doorbell.snapshot_state(),
            "queue_entries": {
                f"{port}:{index}": count
                for (port, index), count in self.queue_entries_handled.items()
            },
            "queue_doorbells": {
                f"{port}:{index}": bell.snapshot_state()
                for (port, index), bell in self.queue_doorbells.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self.state = GuestState(state["state"])
        self.entries_handled = state["entries_handled"]
        self.pci_requests_handled = state["pci_requests_handled"]
        self.crashed = state["crashed"]
        self.doorbell.restore_state(state["doorbell"])
        for flat_key, count in state.get("queue_entries", {}).items():
            port, _, index = flat_key.rpartition(":")
            self.queue_entries_handled[(port, int(index))] = count
        for flat_key, bell_state in state.get("queue_doorbells", {}).items():
            port, _, index = flat_key.rpartition(":")
            bell = self.queue_doorbells.get((port, int(index)))
            if bell is None:
                raise RuntimeError(
                    f"snapshot has a doorbell for queue {flat_key!r} but the "
                    "rebuilt hypervisor never registered it; rebuild the "
                    "shell with the same handlers before restoring")
            bell.restore_state(bell_state)

    def _halt(self, cause: str) -> None:
        """Interrupt every worker and disarm the doorbells."""
        for process in self.workers.values():
            if process.is_alive:
                process.interrupt(cause)
        self.workers.clear()
        self.doorbell.cancel()
        for bell in self.queue_doorbells.values():
            bell.cancel()
        if self.bond.mailbox.on_post == self.doorbell.ring:
            self.bond.mailbox.on_post = None

    def stop(self) -> None:
        self._halt("shutdown")

    def crash(self) -> None:
        """Kill the process: workers AND in-flight service work die.

        Unlike :meth:`stop` (a clean shutdown that lets spawned service
        generators run to completion), a crash takes the whole address
        space with it — every service process is interrupted mid-flight,
        modelling requests the dead backend will never complete. The
        shadow vring keeps those as consumed-but-uncompleted entries;
        recovery replays them (``ShadowVring.replay_consumed``).
        """
        if self.crashed:
            return
        self.crashed = True
        self._halt("crash")
        for service in list(self._service_processes):
            if service.is_alive:
                service.interrupt("crash")
        self._service_processes.clear()
        if self.on_crash is not None:
            self.on_crash(self)
