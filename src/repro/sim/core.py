"""The discrete-event simulation kernel.

:class:`Simulator` owns the event queue and the clock. Simulation logic
is written as generator functions ("processes") that yield
:class:`~repro.sim.events.Event` objects; the kernel resumes each
process when its awaited event fires.

Time is a ``float`` in **seconds**. Hardware models in this repository
use microsecond-scale delays (e.g. ``0.8e-6`` for one IO-Bond PCI hop).

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator(seed=7)
>>> log = []
>>> def worker(sim, name, period):
...     for _ in range(3):
...         yield sim.timeout(period)
...         log.append((sim.now, name))
>>> _ = sim.spawn(worker(sim, "a", 1.0))
>>> _ = sim.spawn(worker(sim, "b", 1.5))
>>> sim.run()
>>> log[0]
(1.0, 'a')

Performance
-----------
The kernel has a *fast lane* for the dominant event shape — a single
process waiting on a single event (``yield sim.timeout(dt)`` and
friends). Such events carry their waiter in ``Event._waiter`` and the
dispatch loop inlined in :meth:`Simulator.run` and
:meth:`Simulator.run_process` resumes the process directly, skipping
the callback-list allocation of the generic path. The generic-callback
reference kernel the equivalence tests compare against lives with the
tests (``tests/sim/reference_kernel.py``). :attr:`Simulator.stats`
counts both lanes; see :class:`EventStats`.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Any, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import PENDING, PROCESSED, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.queue import CalendarQueue
from repro.sim.rng import RandomStreams
from repro.sim.snapshot import KernelSnapshot, SnapshotError

__all__ = [
    "Simulator",
    "EventStats",
    "AuditReport",
    "QuiescenceError",
    "KernelSnapshot",
    "SnapshotError",
    "global_event_totals",
    "reset_global_stats",
]

_INF = float("inf")


class EventStats:
    """Kernel counters for one :class:`Simulator`.

    * ``events_popped`` — total events dispatched by the run loops;
    * ``fast_path_hits`` — pops dispatched through the single-waiter
      fast lane (no callback list, direct process resume);
    * ``idle_poll_events`` — no-op wakeups scheduled by busy-polling
      service loops that found nothing to do (doorbell disabled);
    * ``doorbell_parks`` — times a poll loop parked on a doorbell
      instead of spinning;
    * ``doorbell_rings`` — producer-side doorbell notifications;
    * ``idle_polls_skipped`` — idle poll ticks the doorbell quantization
      stepped over without scheduling an event.

    Queue-depth observability (synced lazily from the event queue so
    the hot path pays nothing beyond the queue's own counters):

    * ``events_pushed`` — total entries pushed into the event queue;
    * ``queue_len_max`` — high-water mark of the queue depth;
    * ``queue_len_sum`` — queue depth summed at every pop
      (``queue_len_sum / events_popped`` is the mean depth);
    * ``bucket_overflows`` — calendar-queue entries scheduled beyond
      the bucket horizon.

    Direct attribute reads of the queue-synced counters can be stale
    mid-run; :meth:`as_dict` and :func:`global_event_totals` sync
    first and are the supported read paths.
    """

    _COUNTERS = (
        "events_popped",
        "fast_path_hits",
        "idle_poll_events",
        "doorbell_parks",
        "doorbell_rings",
        "idle_polls_skipped",
        "events_pushed",
        "queue_len_max",
        "queue_len_sum",
        "bucket_overflows",
    )

    __slots__ = _COUNTERS + ("_sim",)

    def __init__(self, sim: "Simulator"):
        for name in self._COUNTERS:
            setattr(self, name, 0)
        # Weak: the queue holds every pending event and each event holds
        # its simulator, so a strong link from the global registry would
        # keep whole simulations alive. Simulator.__del__ copies the
        # final queue counters in before the reference dies.
        self._sim = weakref.ref(sim)

    def sync(self) -> "EventStats":
        """Pull the queue-owned counters into this object."""
        sim = self._sim()
        if sim is not None:
            self._pull(sim._queue)
        return self

    def _pull(self, queue: CalendarQueue) -> None:
        self.events_pushed = queue.pushes
        self.queue_len_max = queue.len_max
        self.queue_len_sum = queue.len_sum
        self.bucket_overflows = queue.overflows

    def as_dict(self) -> dict:
        self.sync()
        return {name: getattr(self, name) for name in self._COUNTERS}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"EventStats({body})"


# Every simulator registers its stats here so tooling (e.g.
# scripts/export_bench.py) can report aggregate event counts for code
# that creates simulators internally. Entries are tiny slotted counter
# objects that refer to their simulator weakly, so they do not keep the
# simulators themselves alive.
_ALL_STATS: List[EventStats] = []


def global_event_totals() -> dict:
    """Aggregate counters across every simulator created so far.

    ``queue_len_max`` aggregates as a max (a high-water mark summed
    across independent simulators would be meaningless); every other
    counter sums.
    """
    totals = {name: 0 for name in EventStats._COUNTERS}
    for stats in _ALL_STATS:
        stats.sync()
        for name in EventStats._COUNTERS:
            if name == "queue_len_max":
                totals[name] = max(totals[name], stats.queue_len_max)
            else:
                totals[name] += getattr(stats, name)
    return totals


def reset_global_stats() -> None:
    """Drop the global stats registry (test/tooling isolation)."""
    _ALL_STATS.clear()


class QuiescenceError(RuntimeError):
    """Raised by :meth:`AuditReport.require_quiescent` on leftovers."""


class AuditReport:
    """Snapshot of everything still alive inside one :class:`Simulator`.

    ``live_processes`` are spawned processes that have not completed
    (daemon poll loops legitimately appear here forever); ``resources``
    carries outstanding-slot counts for every :class:`Resource`
    constructed against the simulator. Produced by
    :meth:`Simulator.audit`.
    """

    def __init__(self, now: float,
                 live_processes: List[Process],
                 resources: List[Tuple[str, int, int, int]]):
        self.now = now
        self.live_processes = live_processes
        # (label, in_use, capacity, queued_waiters) per Resource.
        self.resources = resources

    @property
    def busy_resources(self) -> List[Tuple[str, int, int, int]]:
        """Resources with held slots or queued waiters."""
        return [r for r in self.resources if r[1] > 0 or r[3] > 0]

    def offenders(self, allow_processes: Tuple[str, ...] = ()) -> List[str]:
        """Human-readable leftovers, excluding allowed daemon names.

        ``allow_processes`` are name prefixes (a supervisor or poll loop
        is expected to outlive every workload); anything else still
        alive — or any held resource slot — is an offender.
        """
        out = []
        for proc in self.live_processes:
            name = proc.name
            if any(name.startswith(prefix) for prefix in allow_processes):
                continue
            target = proc.target
            waiting = f" waiting on {target!r}" if target is not None else ""
            out.append(f"process {name!r} never completed{waiting}")
        for label, in_use, capacity, queued in self.busy_resources:
            out.append(
                f"resource {label!r} holds {in_use}/{capacity} slot(s), "
                f"{queued} waiter(s) queued"
            )
        return out

    def require_quiescent(self, allow_processes: Tuple[str, ...] = ()) -> None:
        """Raise :class:`QuiescenceError` listing every offender."""
        offenders = self.offenders(allow_processes)
        if offenders:
            listing = "\n  ".join(offenders)
            raise QuiescenceError(
                f"simulation not quiescent at t={self.now:.6f}s; "
                f"{len(offenders)} offender(s):\n  {listing}"
            )

    def __repr__(self) -> str:
        return (
            f"AuditReport(now={self.now:.6f}, "
            f"live_processes={[p.name for p in self.live_processes]}, "
            f"busy_resources={self.busy_resources})"
        )


class Simulator:
    """Discrete-event simulator with a seeded random-stream registry.

    Parameters
    ----------
    seed:
        Root seed for all random streams drawn via :attr:`streams`.
        Every simulation in this repository is deterministic given its
        seed, which the experiment harnesses rely on.
    """

    def __init__(self, seed: int = 0):
        self._queue = CalendarQueue()
        self.stats = EventStats(self)
        _ALL_STATS.append(self.stats)
        self._now = 0.0
        self._counter = itertools.count()
        self.streams = RandomStreams(seed)
        self._active_process: Optional[Process] = None
        self._participants: dict = {}
        # Audit registries: weak references so tracking never extends a
        # process's or primitive's lifetime. Dead refs are pruned lazily
        # whenever a list doubles past its last compaction size.
        self._audit_processes: List[weakref.ref] = []
        self._audit_primitives: List[weakref.ref] = []
        self._audit_prune_at = 64

    def __del__(self):
        # The collector clears weakrefs before finalizers run, so the
        # registry entry can no longer reach this simulator through
        # stats.sync(); hand it the final queue counters directly.
        self.stats._pull(self._queue)

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction ------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        proc = Process(self, generator, name=name)
        self._audit_processes.append(weakref.ref(proc))
        if len(self._audit_processes) >= self._audit_prune_at:
            self._prune_audit()
        return proc

    # Alias familiar to SimPy users.
    process = spawn

    # -- audit -------------------------------------------------------------
    def _register_primitive(self, primitive) -> None:
        """Track a Resource for :meth:`audit` (weakly)."""
        self._audit_primitives.append(weakref.ref(primitive))

    def _prune_audit(self) -> None:
        self._audit_processes = [r for r in self._audit_processes
                                 if r() is not None]
        self._audit_prune_at = max(64, 2 * len(self._audit_processes))

    def audit(self) -> AuditReport:
        """Snapshot live processes and outstanding Resource slots.

        The end-of-run quiescence monitor is built on this, but it is
        just as useful standalone:

            sim.audit().require_quiescent(allow_processes=("bmhv.",))

        raises a :class:`QuiescenceError` naming every never-completed
        process and held resource slot.
        """
        live = [proc for ref in self._audit_processes
                if (proc := ref()) is not None and proc.is_alive]
        resources = [(res.label or type(res).__name__, res.in_use,
                      res.capacity, res.queue_length)
                     for ref in self._audit_primitives
                     if (res := ref()) is not None]
        return AuditReport(self._now, live, resources)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Schedule ``event`` to pop ``delay`` seconds from now.

        With :meth:`_schedule_at` and :meth:`schedule_batch`, this is
        the only way entries enter the event queue — no module outside
        ``sim/core.py`` touches the queue representation.
        """
        self._queue.push(self._now + delay, next(self._counter), event)

    def _schedule_at(self, when: float, event: Event) -> None:
        """Schedule ``event`` at an absolute time (doorbell wakeups)."""
        self._queue.push(when, next(self._counter), event)

    def schedule_batch(self, whens, events) -> None:
        """Schedule many events at absolute times in one queue call.

        ``whens`` and ``events`` are parallel sequences; entry *i* pops
        at ``whens[i]``. Insertion counters are assigned in sequence
        order, so the result is indistinguishable from calling
        :meth:`_schedule_at` in a loop — same pop order, same
        counters — but homogeneous floods (the vectorized churn
        engine's batch wakeups) pay one bulk ``push_batch`` instead of
        a Python-level push per event.
        """
        if len(whens) != len(events):
            raise ValueError(
                f"whens/events length mismatch: {len(whens)} != {len(events)}")
        counter = self._counter
        self._queue.push_batch([(float(when), next(counter), event)
                                for when, event in zip(whens, events)])

    # -- main loop ----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced exactly to it,
        even if no event is scheduled at that instant.

        The dispatch body is inlined here (and in :meth:`run_process`)
        rather than factored into a method: at ~10⁵ events per simulated
        experiment the per-event call overhead is measurable.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        pop = self._queue.pop
        stats = self.stats
        if until is None:
            while True:
                try:
                    when, _, event = pop()
                except IndexError:
                    break
                self._now = when
                stats.events_popped += 1
                waiter = event._waiter
                if waiter is not None:
                    # Fast lane: a single process is waiting and nobody
                    # else subscribed; resume it directly. The guards
                    # mirror Process._resume minus the urgent-interrupt
                    # case — interrupts always go through add_callback.
                    event._waiter = None
                    event._state = PROCESSED
                    stats.fast_path_hits += 1
                    if waiter._state is PENDING and event is waiter._target:
                        waiter._advance(event)
                    continue
                callbacks, event.callbacks = event.callbacks, None
                event._state = PROCESSED
                if callbacks:
                    for callback in callbacks:
                        callback(event)
            return
        peek = self._queue.peek_when
        while peek() <= until:
            when, _, event = pop()
            self._now = when
            stats.events_popped += 1
            waiter = event._waiter
            if waiter is not None:
                event._waiter = None
                event._state = PROCESSED
                stats.fast_path_hits += 1
                if waiter._state is PENDING and event is waiter._target:
                    waiter._advance(event)
                continue
            callbacks, event.callbacks = event.callbacks, None
            event._state = PROCESSED
            if callbacks:
                for callback in callbacks:
                    callback(event)
        self._now = max(self._now, until)

    def run_process(self, generator: Generator, timeout: Optional[float] = None) -> Any:
        """Spawn ``generator``, run the simulation, and return its value.

        A convenience wrapper used heavily by experiments: it runs only
        until the process completes (daemon processes like poll loops
        may still have events queued), raises if the process fails, and
        raises ``RuntimeError`` if the simulation drains (or hits
        ``timeout``) before the process finishes. When the deadline is
        hit, the clock is advanced exactly to ``timeout``, mirroring
        :meth:`run`.
        """
        proc = self.spawn(generator)
        pop = self._queue.pop
        peek = self._queue.peek_when
        stats = self.stats
        hit_deadline = False
        deadline = _INF if timeout is None else timeout
        while proc._state is PENDING:
            when = peek()
            if when == _INF:
                break
            if when > deadline:
                hit_deadline = True
                break
            when, _, event = pop()
            self._now = when
            stats.events_popped += 1
            waiter = event._waiter
            if waiter is not None:
                event._waiter = None
                event._state = PROCESSED
                stats.fast_path_hits += 1
                if waiter._state is PENDING and event is waiter._target:
                    waiter._advance(event)
                continue
            callbacks, event.callbacks = event.callbacks, None
            event._state = PROCESSED
            if callbacks:
                for callback in callbacks:
                    callback(event)
        if proc._state is PENDING:
            if hit_deadline:
                self._now = max(self._now, timeout)
                raise RuntimeError(
                    f"simulation hit timeout={timeout} before the process completed"
                )
            raise RuntimeError("simulation drained before the process completed")
        if not proc._ok:
            raise proc._value
        return proc._value

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue.peek_when()

    # -- snapshot / restore --------------------------------------------------
    def register_participant(self, key: str, participant) -> None:
        """Register an object for the snapshot rebuild protocol.

        ``participant`` must expose ``snapshot_state() -> dict`` and
        ``restore_state(dict)``. Keys must be deterministic given the
        construction recipe, so a rebuilt simulation registers the same
        set (see :mod:`repro.sim.snapshot`). Re-registering a key
        replaces the previous participant — last writer wins — because
        recovery paths legitimately rebuild a component under its old
        identity (live upgrade and crash recovery construct a second
        hypervisor for the same guest).
        """
        self._participants[key] = participant

    def snapshot(self) -> KernelSnapshot:
        """Capture kernel state at a quiescent point.

        Raises :class:`SnapshotError` if any event is still queued —
        snapshots rely on live processes being daemons parked on
        doorbells (parked events live outside the queue and only get
        an insertion counter when rung), so an empty queue is exactly
        the condition under which no continuation state exists.
        """
        pending = len(self._queue)
        if pending:
            raise SnapshotError(
                f"cannot snapshot at t={self._now:.6f}s: {pending} event(s) "
                "still queued; snapshots are taken at quiescence "
                "(parked daemons only)"
            )
        # itertools.count exposes its next value via __reduce__.
        next_counter = self._counter.__reduce__()[1][0]
        return KernelSnapshot(
            now=self._now,
            next_counter=next_counter,
            rng_states=self.streams.state(),
            stats=self.stats.as_dict(),
            participants={key: obj.snapshot_state()
                          for key, obj in self._participants.items()},
        )

    def restore(self, snapshot: KernelSnapshot, *, restore_stats: bool = False) -> None:
        """Adopt a snapshot taken from an identically-built simulation.

        The caller must have rebuilt the object graph (same recipe,
        same participant keys) and parked its daemons first; this
        method then applies clock, counter position, RNG stream states,
        and participant states, after which the simulation's future
        evolution is bit-identical to the original's.

        By default the kernel counters are zeroed so a restored run
        reports only its own event traffic; ``restore_stats=True``
        continues the original counters instead.
        """
        pending = len(self._queue)
        if pending:
            raise SnapshotError(
                f"cannot restore with {pending} event(s) queued; run the "
                "rebuilt simulation to quiescence (parked daemons) first"
            )
        missing = [key for key in snapshot.participants
                   if key not in self._participants]
        if missing:
            raise SnapshotError(
                "restore target is missing participant(s) "
                f"{missing!r}; the rebuild recipe diverged from the "
                "snapshot source"
            )
        self._now = snapshot.now
        self._counter = itertools.count(snapshot.next_counter)
        self.streams.restore(snapshot.rng_states)
        for key, state in snapshot.participants.items():
            self._participants[key].restore_state(state)
        queue = self._queue
        stats = self.stats
        if restore_stats:
            for name in EventStats._COUNTERS:
                setattr(stats, name, snapshot.stats.get(name, 0))
            queue.pushes = stats.events_pushed
            queue.pops = stats.events_popped
            queue.len_max = stats.queue_len_max
            queue.len_sum = stats.queue_len_sum
            queue.overflows = stats.bucket_overflows
        else:
            for name in EventStats._COUNTERS:
                setattr(stats, name, 0)
            queue.pushes = queue.pops = 0
            queue.len_max = queue.len_sum = queue.overflows = 0
