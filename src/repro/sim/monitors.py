"""Runtime invariant monitors: the one interface every monitor shares.

A monitor watches one protocol boundary and knows the invariant that
must hold there at every instant, not just in the final state. A
:class:`MonitorSuite` samples all of them from one periodic process, so
a transient violation (a used-ring double delivery that a later retry
happens to mask) is caught at the next sample, with the simulated
timestamp attached. The base sits in the kernel package so that the
``chaos``, ``fabric`` and ``fleet`` monitors all subclass it without
importing the layers above them.

Monitors are **read-only**: they never mutate model state, never draw
from an RNG stream, and never block a model process. The sampler adds
its own timeout events to the heap, but those cannot reorder any other
events relative to each other, and a chaos run and its fault-free
baseline install the identical suite, so the differential oracle
compares like with like.

To add a monitor, subclass :class:`InvariantMonitor`, give it a
``name``, implement ``observe`` (every sample; one message per breach)
and/or ``at_end`` (once, after the run and ``finalize``), and pass an
instance to the suite. See DESIGN.md §8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

__all__ = ["Violation", "InvariantMonitor", "MonitorSuite"]


@dataclass(frozen=True)
class Violation:
    """One invariant breach, stamped with the simulated time."""

    monitor: str
    at_s: float
    message: str

    def __str__(self) -> str:
        return f"[{self.at_s * 1e3:9.4f} ms] {self.monitor}: {self.message}"


class InvariantMonitor:
    """Base class: a named, read-only observer of one invariant."""

    name = "invariant"

    def observe(self, sim) -> Iterable[str]:
        """Check the invariant now; yield one message per breach."""
        return ()

    def at_end(self, sim) -> Iterable[str]:
        """End-of-run check, after the final clock and ``finalize``."""
        return ()


class MonitorSuite:
    """Runs every monitor from one periodic sampling process.

    ``finish`` must be called after the final ``sim.run`` (and after
    ``AvailabilityAccounting.finalize``): it takes a last sample and
    runs each monitor's end-of-run check. Violations are capped per
    monitor so a systemic breach yields a readable report instead of
    one entry per sample.
    """

    def __init__(self, sim, monitors: List[InvariantMonitor],
                 period_s: float = 250e-6, max_per_monitor: int = 20):
        if period_s <= 0:
            raise ValueError(f"sample period must be positive, got {period_s}")
        self.sim = sim
        self.monitors = list(monitors)
        self.period_s = period_s
        self.max_per_monitor = max_per_monitor
        self.violations: List[Violation] = []
        self.samples = 0
        self._counts: Dict[str, int] = {}
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("monitor suite already started")
        self._started = True
        self.sim.spawn(self._sample_loop(), name="chaos.monitors")

    def _sample_loop(self):
        while True:
            self.sample()
            yield self.sim.timeout(self.period_s)

    def sample(self) -> None:
        self.samples += 1
        for monitor in self.monitors:
            for message in monitor.observe(self.sim):
                self._record(monitor.name, message)

    def finish(self) -> None:
        """Final sample + end-of-run checks; call once after the run."""
        self.sample()
        for monitor in self.monitors:
            for message in monitor.at_end(self.sim):
                self._record(monitor.name, message)

    def _record(self, name: str, message: str) -> None:
        count = self._counts.get(name, 0)
        self._counts[name] = count + 1
        if count < self.max_per_monitor:
            self.violations.append(Violation(name, self.sim.now, message))
        elif count == self.max_per_monitor:
            self.violations.append(Violation(
                name, self.sim.now,
                f"further violations suppressed after {count}"))

    @property
    def ok(self) -> bool:
        return not self.violations
