"""Crash detection and restart of bm-hypervisor processes.

The paper's availability argument (Section 3.2) is that the
bm-hypervisor is *just a user-space process*: if it dies, the guest's
board, IO-Bond, and rings are all still live, so the control plane can
exec a fresh process and re-attach it — the same capture/restore path
live upgrade uses (Section 6, Orthus). :class:`Supervisor` is that
control-plane agent: it subscribes to crash notifications, waits the
detection latency, restarts with exponential backoff + jitter (every
delay drawn from a dedicated seeded stream, never wall clock), and
replays the shadow-vring entries whose service died with the process.

The same :class:`BackoffSpec` drives :func:`reconnect_with_backoff`,
the vhost-user session recovery loop used for vSwitch/SPDK backend
disconnects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backend.vhost import VhostUserBackend, VhostUserFrontend
from repro.hypervisor.bm import GuestState
from repro.hypervisor.upgrade import EXEC_NEW_BUILD_S, RESTORE_S, HypervisorState
from repro.sim.events import Event

__all__ = ["BackoffSpec", "SupervisorSpec", "Supervisor", "RestartRecord",
           "reconnect_with_backoff"]


@dataclass(frozen=True)
class BackoffSpec:
    """Exponential backoff with bounded multiplicative jitter."""

    base_s: float = 1e-3
    factor: float = 2.0
    max_s: float = 100e-3
    jitter_frac: float = 0.1

    def __post_init__(self):
        if self.base_s <= 0 or self.max_s <= 0 or self.factor < 1.0:
            raise ValueError(f"invalid backoff spec: {self}")
        if self.jitter_frac < 0:
            raise ValueError(f"jitter_frac must be >= 0: {self.jitter_frac}")

    def delay(self, attempt: int, rng=None) -> float:
        """Delay before try ``attempt`` (0-based); jitter from ``rng``."""
        delay = min(self.base_s * self.factor ** attempt, self.max_s)
        if rng is not None and self.jitter_frac > 0:
            delay *= 1.0 + self.jitter_frac * float(rng.uniform())
        return delay

    def budget_s(self, attempts: int) -> float:
        """Worst-case total backoff across ``attempts`` tries."""
        return sum(
            min(self.base_s * self.factor ** i, self.max_s)
            * (1.0 + self.jitter_frac)
            for i in range(attempts)
        )


@dataclass(frozen=True)
class SupervisorSpec:
    """Detection and restart timing for crashed bm-hypervisors."""

    detect_s: float = 200e-6          # health-probe miss -> declared dead
    exec_s: float = EXEC_NEW_BUILD_S  # fork+exec the replacement build
    restore_s: float = RESTORE_S      # replay cursors, re-arm polling
    backoff: BackoffSpec = field(default_factory=BackoffSpec)
    max_attempts: int = 5
    # Probability an exec attempt itself fails (crash-looping binary);
    # drawn from the supervisor's seeded stream. 0 = first try works.
    exec_failure_rate: float = 0.0

    def recovery_budget_s(self) -> float:
        """Upper bound on crash -> serving-again, all retries included."""
        return (
            self.detect_s
            + self.backoff.budget_s(self.max_attempts)
            + self.max_attempts * self.exec_s
            + self.restore_s
        )


@dataclass
class RestartRecord:
    """One completed (or abandoned) crash-recovery cycle."""

    guest_name: str
    crashed_at_s: float
    restored_at_s: float
    attempts: int
    replayed_entries: int
    gave_up: bool = False


class Supervisor:
    """Watches bm-hypervisors and restarts the ones that crash."""

    def __init__(self, sim, spec: Optional[SupervisorSpec] = None,
                 accounting=None):
        self.sim = sim
        self.spec = spec or SupervisorSpec()
        self.accounting = accounting
        self.records: List[RestartRecord] = []
        self._watches: Dict[str, object] = {}

    def watch(self, guest) -> None:
        """Supervise ``guest``'s bm-hypervisor (and its replacements).

        The supervisor swaps each restarted process into
        ``guest.hypervisor``.
        """
        if guest.name in self._watches:
            raise ValueError(f"already watching {guest.name}")
        self._watches[guest.name] = self.sim.spawn(
            self._watch_loop(guest), name=f"supervisor.{guest.name}"
        )

    # -- internals -----------------------------------------------------
    def _watch_loop(self, guest):
        rng = self.sim.streams.get(f"faults.supervisor.{guest.name}")
        while True:
            crashed = Event(self.sim)
            guest.hypervisor.on_crash = lambda hv, _e=crashed: _e.succeed(hv)
            dead = yield crashed
            crashed_at = self.sim.now
            if self.accounting is not None:
                self.accounting.record_down(guest.name, cause="hypervisor_crash")
            # Detection: the health probe has to miss before anyone acts.
            yield self.sim.timeout(self.spec.detect_s)
            state = HypervisorState.capture(dead)
            attempts = 0
            while True:
                yield self.sim.timeout(self.spec.backoff.delay(attempts, rng))
                yield self.sim.timeout(self.spec.exec_s)
                attempts += 1
                if (self.spec.exec_failure_rate > 0
                        and float(rng.uniform()) < self.spec.exec_failure_rate):
                    if attempts >= self.spec.max_attempts:
                        self.records.append(RestartRecord(
                            guest_name=guest.name, crashed_at_s=crashed_at,
                            restored_at_s=self.sim.now, attempts=attempts,
                            replayed_entries=0, gave_up=True,
                        ))
                        return
                    continue
                break
            replacement = state.respawn(self.sim, dead.bond)
            yield self.sim.timeout(self.spec.restore_s)
            # Replay entries the dead process had consumed but never
            # completed: republished before the workers start, so the
            # first drain pass picks them up (in original order).
            replayed = 0
            for port in dead.bond.ports.values():
                for shadow in port.shadows.values():
                    replayed += shadow.replay_consumed()
            if replacement.state in (GuestState.BOOTING, GuestState.RUNNING):
                replacement.start()
            guest.hypervisor = replacement
            if self.accounting is not None:
                self.accounting.record_up(guest.name, cause="hypervisor_crash")
            self.records.append(RestartRecord(
                guest_name=guest.name, crashed_at_s=crashed_at,
                restored_at_s=self.sim.now, attempts=attempts,
                replayed_entries=replayed,
            ))


def reconnect_with_backoff(sim, backend, until_s: float,
                           backoff: Optional[BackoffSpec] = None,
                           stream: str = "faults.reconnect",
                           n_queues: int = 1,
                           frontend: Optional[VhostUserFrontend] = None):
    """Process: vhost-user reconnect loop for a dropped backend session.

    Retries with exponential backoff + jitter (seeded stream) until the
    backend is accepting again (``until_s``), then replays the full
    vhost-user handshake — feature negotiation, memory table, per-ring
    setup — and reopens the gate so queued requests drain in FIFO
    order. Returns the number of connection attempts made.

    Pass ``frontend`` to reconnect an *existing* device session: the
    handshake replays against its backend with its ring count (so all N
    virtqueues are re-established); ``n_queues`` is ignored in that
    case. Without it a fresh single-device session is modeled.
    """
    backoff = backoff or BackoffSpec()
    rng = sim.streams.get(stream)
    attempt = 0
    while True:
        yield sim.timeout(backoff.delay(attempt, rng))
        attempt += 1
        if sim.now >= until_s:
            break
    # Structural handshake against the backend session.
    if frontend is None:
        frontend = VhostUserFrontend(VhostUserBackend(), n_queues=n_queues)
    frontend.connect()
    backend.reconnect()
    return attempt
