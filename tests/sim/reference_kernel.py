"""Generic-callback reference kernel for the fast-lane equivalence tests.

The shipped kernel resumes a process that is the sole waiter on an
event straight from the run loop (``Event._waiter``). This reference
never claims that slot: every process bootstraps through
``start.add_callback`` and subscribes to every later target the same
way, so each pop goes through the callback list and
:meth:`~repro.sim.process.Process._resume`. Observable behaviour must
be identical; ``tests/sim/test_fast_path.py`` asserts so.
"""

import weakref

from repro.sim import Simulator
from repro.sim.events import PROCESSED, TRIGGERED, Event
from repro.sim.process import Process


class ReferenceProcess(Process):
    """A :class:`Process` that always takes the generic callback path."""

    __slots__ = ()

    def __init__(self, sim, generator, name: str = ""):
        super().__init__(sim, generator, name=name)
        # Hand the queued start event back from the fast lane.
        start = self._target
        start._waiter = None
        self._target = None
        start.add_callback(self._resume)

    def _advance(self, event: Event) -> None:
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
                self._state = PROCESSED
            else:
                self._state = TRIGGERED
                sim._schedule(self)
            return
        except BaseException as exc:
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
        next_target.add_callback(self._resume)


class ReferenceSimulator(Simulator):
    """A :class:`Simulator` whose processes never ride the fast lane."""

    def spawn(self, generator, name: str = "") -> Process:
        proc = ReferenceProcess(self, generator, name=name)
        self._audit_processes.append(weakref.ref(proc))
        return proc

    process = spawn
