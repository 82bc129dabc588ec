"""Generator-backed simulation processes.

A :class:`Process` drives a generator: each value the generator yields
must be an :class:`~repro.sim.events.Event`; the process sleeps until
that event fires, then resumes with the event's value (or with the
event's exception raised at the yield point).

A process is itself an event — it fires with the generator's return
value — so processes can wait on each other by yielding a process.

Hot-path notes
--------------
When a process waits on a pristine event (no other subscriber), it
claims the event's ``_waiter`` slot instead of appending a bound
method to a callback list; the simulator's run loops then check the
resume guards inline and dispatch the pop straight into
:meth:`_advance`. The generic :meth:`_resume` path remains for shared
events, conditions, and interrupts. The reference kernel the
equivalence tests compare against (``tests/sim/reference_kernel.py``)
overrides :meth:`_advance` to take the generic path always. A process
nobody has joined finishes without scheduling a completion event at
all — it goes straight to PROCESSED, and late joiners resume inline.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import PENDING, PROCESSED, TRIGGERED, Event, Interrupt

__all__ = ["Process"]


class Process(Event):
    """A running simulation process.

    Do not instantiate directly; use :meth:`repro.sim.Simulator.spawn`.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, sim, generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"spawn() needs a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume on the next kernel step. The start event
        # rides the fast lane; no callback list is ever allocated.
        start = Event(sim)
        start._state = TRIGGERED
        start._waiter = self
        self._target: Optional[Event] = start
        sim._schedule(start)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    # -- interruption -------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its yield point.

        Used by scheduler models to preempt a running task. Interrupting
        a finished process is an error; interrupting a process twice
        before it handles the first interrupt is allowed (interrupts
        queue as separate resume events).
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        event = Event(self.sim)
        event._urgent = True
        event.add_callback(self._resume)
        event.fail(Interrupt(cause))

    # -- kernel resume path ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._state is not PENDING:
            # Races are possible when an interrupt lands after the target
            # fired in the same step; the process is already done.
            return
        target = self._target
        if (
            target is not None
            and event is not target
            and not getattr(event, "_urgent", False)
        ):
            # Stale wake-up: the process was interrupted away from this
            # target and is now waiting on something else.
            return
        self._advance(event)

    def _advance(self, event: Event) -> None:
        """Resume the generator; guards live in the callers.

        The simulator's run loops dispatch here directly for fast-lane
        pops (after checking the state/target guards inline);
        :meth:`_resume` is the generic-callback entry point.
        """
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._target = None
            self._value = stop.value
            self._ok = True
            if self.callbacks is None and self._waiter is None:
                # Nobody joined this process: finish without a
                # completion event. Late joiners see PROCESSED and
                # resume inline via add_callback.
                self._state = PROCESSED
            else:
                self._state = TRIGGERED
                sim._schedule(self)
            return
        except BaseException as exc:  # propagate to joiners
            self._target = None
            self.fail(exc)
            return
        finally:
            sim._active_process = None
        if not isinstance(next_target, Event):
            error = TypeError(
                f"process {self.name!r} yielded {next_target!r}; "
                "processes must yield Event instances"
            )
            self._generator.close()
            self.fail(error)
            return
        self._target = next_target
        if (
            next_target._waiter is None
            and next_target.callbacks is None
            and next_target._state is not PROCESSED
        ):
            # Sole waiter on a pristine event: claim the fast lane.
            next_target._waiter = self
        else:
            next_target.add_callback(self._resume)
