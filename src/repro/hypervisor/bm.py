"""The bm-hypervisor: per-guest user-space backend process.

"The bm-hypervisor, which is also a user-space process similar to
vm-hypervisor, is responsible for managing the life cycle of bm-guests
(e.g., assignment, creation, and destruction), providing the backend
support for virtio devices, and interfacing with the cloud
infrastructure... Every bm-hypervisor process provides service to one
bm-guest only" (Section 3.2). Crucially it virtualizes *nothing*: no
CPU, no memory, no instruction emulation — its whole data plane is
polling IO-Bond's mailbox and shadow-vring registers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.iobond.bond import IoBond, IoBondPort
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

    The data plane is driven by :meth:`poll_loop`, a simulation process
    that mirrors the dedicated polling thread: it drains the mailbox
    (forwarded PCI accesses) and every registered shadow vring, handing
    entries to per-queue handlers (the DPDK/SPDK glue installed by the
    server layer).
    """

    def __init__(self, sim, bond: IoBond, guest_name: str,
                 spec: BmHypervisorSpec = BmHypervisorSpec(),
                 passthrough: bool = False):
        self.sim = sim
        self.bond = bond
        self.guest_name = guest_name
        self.spec = spec
        self.state = GuestState.UNASSIGNED
        # Datapath mode. ``mediated`` (default): one poll loop serves
        # every registered virtqueue and drives each service generator
        # inline — backend round-trips serialize across queues.
        # ``passthrough``: every (port, queue) gets its own worker
        # process with its own doorbell, so queues overlap their
        # backend round-trips (the I/O-queues-passthrough design the
        # mq_ablation experiment quantifies).
        self.passthrough = passthrough
        # (port, queue_index) -> handler(entry) -> generator | None
        self._handlers: Dict[Tuple[str, int], Callable] = {}
        # Snapshot of _handlers.items(), rebuilt lazily: the poll loop
        # iterates this every spin, so it must not re-materialize the
        # dict view each time. Invalidated by register_handler.
        self._handler_items: Optional[list] = None
        # Idle-skip doorbell: producers (mailbox posts, shadow-vring
        # publishes) ring it so the idle loop never has to spin. In
        # passthrough mode this bell only covers the mailbox loop;
        # shadow publishes ring the owning queue's bell instead.
        self.doorbell = Doorbell(sim, spec.poll_interval_s)
        # Passthrough per-queue state: one doorbell and one worker
        # process per registered (port, queue_index).
        self.queue_doorbells: Dict[Tuple[str, int], Doorbell] = {}
        self._queue_processes: Dict[Tuple[str, int], object] = {}
        # Per-queue service counter, maintained in both modes.
        self.queue_entries_handled: Dict[Tuple[str, int], int] = {}
        self._poll_process = None
        # Service generators the poll loop is currently driving; a
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
        """Whether the data-plane service thread(s) are alive."""
        if self._poll_process is not None and self._poll_process.is_alive:
            return True
        return any(p.is_alive for p in self._queue_processes.values())

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

        ``handler(entry)`` may return a generator, which the poll loop
        drives inline (e.g. forwarding a burst into the vSwitch).
        """
        key = (port_name, queue_index)
        self._handlers[key] = handler
        self._handler_items = None  # invalidate the poll loop's snapshot
        self.queue_entries_handled.setdefault(key, 0)
        # Wire the doorbell into this queue's shadow vring — including
        # shadows that do not exist yet (IO-Bond creates them lazily on
        # the first guest kick). Mediated mode rings the shared bell;
        # passthrough rings the queue's own bell, so a publish wakes
        # only the worker that owns the queue.
        port = self.bond.port(port_name)
        if self.passthrough:
            bell = self.queue_doorbells.get(key)
            if bell is None:
                bell = Doorbell(self.sim, self.spec.poll_interval_s)
                self.queue_doorbells[key] = bell
            ring = bell.ring
        else:
            ring = self.doorbell.ring
        shadow = port.shadows.get(queue_index)
        if shadow is not None:
            shadow.on_publish = ring
            if shadow.registers.pending > 0:
                ring()

        previous = port.on_shadow_created

        if self.passthrough:
            # Each registration only claims shadows of its own queue;
            # the chained hooks from sibling registrations skip them.
            def wire(new_shadow, _previous=previous, _ring=ring,
                     _queue_index=queue_index):
                if _previous is not None:
                    _previous(new_shadow)
                if new_shadow.queue_index == _queue_index:
                    new_shadow.on_publish = _ring
        else:
            def wire(new_shadow, _previous=previous, _ring=ring):
                if _previous is not None:
                    _previous(new_shadow)
                new_shadow.on_publish = _ring

        port.on_shadow_created = wire

    def start(self) -> None:
        """Spawn the service thread(s).

        Mediated mode starts the single PMD-style poll loop.
        Passthrough mode starts one worker per registered virtqueue
        plus a mailbox loop — handlers must be registered before
        ``start()`` so every queue gets its worker.
        """
        if self._poll_process is not None or self._queue_processes:
            raise RuntimeError("poll loop already started")
        self.bond.mailbox.on_post = self.doorbell.ring
        if not self.passthrough:
            self._poll_process = self.sim.spawn(
                self.poll_loop(), name=f"bmhv.{self.guest_name}"
            )
            return
        self._poll_process = self.sim.spawn(
            self.mailbox_loop(), name=f"bmhv.{self.guest_name}.mailbox"
        )
        for key in self._handlers:
            port_name, queue_index = key
            self._queue_processes[key] = self.sim.spawn(
                self.queue_loop(key),
                name=f"bmhv.{self.guest_name}.{port_name}.q{queue_index}",
            )

    def poll_loop(self):
        """Process: the PMD-style service loop (runs until interrupted)."""
        try:
            yield from self._poll_forever()
        except Interrupt:
            return

    def mailbox_loop(self):
        """Process: passthrough-mode mailbox service (PCI emulation only)."""
        try:
            yield from self._mailbox_forever()
        except Interrupt:
            return

    def queue_loop(self, key: Tuple[str, int]):
        """Process: passthrough-mode worker for one (port, queue)."""
        try:
            yield from self._queue_forever(key)
        except Interrupt:
            return

    def _poll_forever(self):
        while True:
            busy = False
            # Forwarded PCI accesses land in the mailbox; the response
            # side of the emulation costs software time here.
            while self.bond.mailbox.poll_request() is not None:
                yield self.sim.timeout(self.spec.pci_emulation_s)
                self.pci_requests_handled += 1
                busy = True
            items = self._handler_items
            if items is None:
                items = self._handler_items = list(self._handlers.items())
            for (port_name, queue_index), handler in items:
                port = self.bond.port(port_name)
                if queue_index not in port.shadows:
                    continue
                shadow = port.shadows[queue_index]
                while True:
                    entry = shadow.backend_poll()
                    if entry is None:
                        break
                    yield self.sim.timeout(self.spec.request_handling_s)
                    result = handler(entry)
                    if result is not None and hasattr(result, "send"):
                        service = self.sim.spawn(result)
                        self._service_processes.add(service)
                        try:
                            yield service
                        finally:
                            self._service_processes.discard(service)
                    self.entries_handled += 1
                    self.queue_entries_handled[(port_name, queue_index)] = (
                        self.queue_entries_handled.get(
                            (port_name, queue_index), 0) + 1)
                    busy = True
            if not busy:
                # A clean drain pass consumes no simulated time, so the
                # park anchors on a time the busy-poll grid would reach.
                yield self.doorbell.park()

    def _mailbox_forever(self):
        while True:
            busy = False
            while self.bond.mailbox.poll_request() is not None:
                yield self.sim.timeout(self.spec.pci_emulation_s)
                self.pci_requests_handled += 1
                busy = True
            if not busy:
                yield self.doorbell.park()

    def _queue_forever(self, key: Tuple[str, int]):
        port_name, queue_index = key
        port = self.bond.port(port_name)
        bell = self.queue_doorbells[key]
        while True:
            busy = False
            shadow = port.shadows.get(queue_index)
            if shadow is not None:
                handler = self._handlers[key]
                while True:
                    entry = shadow.backend_poll()
                    if entry is None:
                        break
                    yield self.sim.timeout(self.spec.request_handling_s)
                    result = handler(entry)
                    if result is not None and hasattr(result, "send"):
                        service = self.sim.spawn(result)
                        self._service_processes.add(service)
                        try:
                            yield service
                        finally:
                            self._service_processes.discard(service)
                    self.entries_handled += 1
                    self.queue_entries_handled[key] = (
                        self.queue_entries_handled.get(key, 0) + 1)
                    busy = True
            if not busy:
                yield bell.park()

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

    def stop(self) -> None:
        if self._poll_process is not None and self._poll_process.is_alive:
            self._poll_process.interrupt("shutdown")
        self._poll_process = None
        for process in self._queue_processes.values():
            if process.is_alive:
                process.interrupt("shutdown")
        self._queue_processes.clear()
        self.doorbell.cancel()
        for bell in self.queue_doorbells.values():
            bell.cancel()
        if self.bond.mailbox.on_post == self.doorbell.ring:
            self.bond.mailbox.on_post = None

    def crash(self) -> None:
        """Kill the process: poll thread AND in-flight service work die.

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
        if self._poll_process is not None and self._poll_process.is_alive:
            self._poll_process.interrupt("crash")
        self._poll_process = None
        for process in self._queue_processes.values():
            if process.is_alive:
                process.interrupt("crash")
        self._queue_processes.clear()
        for service in list(self._service_processes):
            if service.is_alive:
                service.interrupt("crash")
        self._service_processes.clear()
        self.doorbell.cancel()
        for bell in self.queue_doorbells.values():
            bell.cancel()
        if self.bond.mailbox.on_post == self.doorbell.ring:
            self.bond.mailbox.on_post = None
        if self.on_crash is not None:
            self.on_crash(self)
