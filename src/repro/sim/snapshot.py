"""Kernel snapshot/restore: rebuilding a simulation mid-flight.

A :class:`KernelSnapshot` captures everything the kernel needs to make
a *rebuilt* simulation evolve bit-identically to the one it was taken
from: the clock, the event-counter position (FIFO tie-breaks), every
named RNG stream's bit-generator state, the kernel counters, and one
opaque state dict per registered *participant*.

Process continuations are **not** pickled. Snapshots are only legal at
quiescence — the event queue must be empty, which in this codebase
means every live process is a daemon parked on a
:class:`~repro.sim.doorbell.Doorbell` (a parked event lives outside
the queue and receives its insertion counter only when rung). Restore
is therefore a *rebuild protocol*, not deserialization:

1. Reconstruct the object graph with the same deterministic recipe
   that built the original (constructors only — cheap, no simulated
   time). Construction re-registers the same participant keys.
2. Re-register handlers and respawn daemon loops, then run the fresh
   simulator until those loops park (a handful of start events).
3. Apply the kernel snapshot **last**: clock, counter, RNG states, and
   each participant's ``restore_state``. From that point every
   schedule call draws the same counters, every draw the same bits,
   and every doorbell ring replays the same poll grid — so the
   restored simulation's future is indistinguishable from the original's.

A participant is any object registered through
``Simulator.register_participant(key, obj)`` exposing
``snapshot_state() -> dict`` and ``restore_state(dict)``. Keys must be
deterministic functions of the construction recipe (guest names,
device labels) so the rebuilt graph re-registers the same set.

The chaos runner's ``checkpoint=True`` mode uses this protocol as a
rebuild check: it snapshots a freshly built scenario, rebuilds it, and
restores before running the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["KernelSnapshot", "SnapshotError"]


class SnapshotError(RuntimeError):
    """Snapshot/restore attempted in an illegal state.

    Raised when the event queue is not empty (the simulation is not at
    a quiescent point) or when a restore target's participant registry
    does not match the snapshot's (the rebuild recipe diverged).
    """


@dataclass
class KernelSnapshot:
    """Portable kernel state at one quiescent point.

    Everything inside is plain Python/ints/floats, so snapshots pickle
    cheaply and survive JSON round-trips for debugging.
    """

    now: float
    next_counter: int
    rng_states: Dict[str, dict]
    stats: Dict[str, int]
    participants: Dict[str, dict] = field(default_factory=dict)
