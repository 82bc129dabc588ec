"""Event primitives for the discrete-event simulation kernel.

The kernel is generator based, in the style of SimPy: simulation
processes are Python generators that ``yield`` events; the simulator
resumes a process when the event it is waiting on fires.

An :class:`Event` has three observable states:

* *pending* — created but not yet triggered;
* *triggered* — scheduled to fire; it carries a value (or an exception);
* *processed* — its callbacks have run.

Composite events (:class:`AllOf`, :class:`AnyOf`) allow a process to
wait for conjunctions or disjunctions of other events.

Hot-path notes
--------------
Events are the single most-allocated object in any run, so the class
is slotted and the callback list is lazy: ``callbacks`` stays ``None``
until someone subscribes. The dominant subscriber — a process doing
``yield sim.timeout(dt)`` — never materializes the list at all: the
kernel stores the process in ``_waiter`` and the simulator dispatches
it directly when the event pops (see ``Simulator.run``).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
]

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` attribute carries an arbitrary value supplied by the
    interrupter (for example, the preempting task in a scheduler model).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A single occurrence that processes can wait for.

    Events are created against a simulator and fired either immediately
    (:meth:`succeed` / :meth:`fail`) or at a later simulated time by the
    kernel (see :class:`Timeout`).
    """

    # ``__weakref__`` keeps the slotted class weak-referenceable: the
    # simulator's audit registry tracks processes (which are events)
    # through weak references so it never extends their lifetime.
    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_waiter",
                 "_urgent", "__weakref__")

    def __init__(self, sim: "Simulator"):  # noqa: F821 - circular hint
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._ok = True
        self._state = PENDING
        self._waiter = None

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state is not PENDING

    @property
    def processed(self) -> bool:
        return self._state is PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event carries a value (True) or an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state is PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state is not PENDING:
            raise RuntimeError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.
        """
        if self._state is not PENDING:
            raise RuntimeError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.sim._schedule(self)
        return self

    # -- kernel hooks ----------------------------------------------------
    def _mark_processed(self) -> None:
        self._state = PROCESSED

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when this event is processed."""
        if self._state is PROCESSED:
            # Already processed: run in-line, preserving ordering for
            # late subscribers (mirrors SimPy semantics closely enough
            # for our models).
            callback(self)
            return
        waiter = self._waiter
        if waiter is not None:
            # A process claimed the fast lane first; demote it to the
            # generic callback list, preserving subscription order.
            self._waiter = None
            self.callbacks = [waiter._resume, callback]
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} state={self._state}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ plus immediate scheduling: this runs
        # millions of times per experiment. Scheduling goes through the
        # simulator API — the queue representation is core.py's alone.
        self.sim = sim
        self.callbacks = None
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self._waiter = None
        self.delay = delay
        sim._schedule(self, delay)


class _Condition(Event):
    """Base class for composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim, events):  # noqa: F821
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired.

    The value is the list of child values, in construction order. If any
    child fails, the condition fails with the first failure.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child.value for child in self.events])


class AnyOf(_Condition):
    """Fires when the first child event fires; value is that child's value."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.succeed(event.value)
