"""The one picklable job type and its per-job counter bracketing.

A :class:`Job` is ``(key, fn, args)``: :func:`execute` calls
``fn(*args)``. It is pickled to a pool worker process, so ``fn``
must be a module-level callable (pickled by reference) and ``args``
must be picklable values — ids, parameters and plain spec objects,
never live simulators or open resources. This package knows nothing
about what the callables do: each domain module produces its own
payloads, and the caller that planned the jobs folds them.

:func:`execute` is the single entry point the pool's workers (and the
``--jobs 1`` inline path) use. It brackets each job with
:func:`repro.sim.reset_global_stats` / :func:`repro.sim.global_event_totals`
so the kernel counters in a :class:`JobResult` are exactly the events
*this* job scheduled — per-worker totals the caller can sum into the
same numbers a serial run would have reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List

__all__ = ["Job", "JobResult", "execute", "check_unique_keys"]


@dataclass(frozen=True)
class Job:
    """Run ``fn(*args)`` and file the payload under ``key``.

    ``key`` is unique within one batch; results come back keyed by it.
    """

    key: str
    fn: Callable
    args: tuple = ()


@dataclass
class JobResult:
    """What one job produced, plus the kernel counters it cost.

    ``events`` is the :func:`~repro.sim.global_event_totals` delta for
    the job alone (the worker resets the registry around every job).
    """

    key: str
    payload: Any
    events: Dict[str, int]
    wall_s: float


def check_unique_keys(jobs: Iterable[Job]) -> List[str]:
    """The batch's keys in order; ``ValueError`` naming any duplicate."""
    keys = [job.key for job in jobs]
    if len(set(keys)) != len(keys):
        seen = set()
        dupes = sorted({k for k in keys if k in seen or seen.add(k)})
        raise ValueError(f"duplicate job keys: {dupes}")
    return keys


def execute(job: Job) -> JobResult:
    """Run one job with per-job kernel-counter isolation.

    Used identically by pool workers and by the inline ``--jobs 1``
    path, which is what makes serial and parallel runs comparable: the
    events in every :class:`JobResult` are a clean per-job delta.
    """
    from repro.sim import global_event_totals, reset_global_stats

    reset_global_stats()
    start = time.perf_counter()
    payload = job.fn(*job.args)
    wall = time.perf_counter() - start
    return JobResult(key=job.key, payload=payload,
                     events=global_event_totals(), wall_s=wall)
