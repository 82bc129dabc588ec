"""Parallel job orchestration (DESIGN.md §9).

Every experiment, chaos campaign, and seed-sweep run in this repository
is a seeded, single-process DES sharing no state with its neighbors —
the paper's own evaluation (Figs 7–16, Tables 1–3) is a fan-out of
independent configurations. This package turns that independence into
wall-clock speedup without giving up a byte of determinism. It runs
``(key, fn, args)`` jobs and knows nothing about what they compute:
callers plan the jobs, and fold the payloads by key.

* :mod:`repro.parallel.jobs` — the one picklable :class:`Job` plus the
  per-job kernel-counter bracketing (:func:`~repro.parallel.jobs.execute`);
* :mod:`repro.parallel.pool` — a spawn-once persistent worker pool with
  crash-isolated workers and one fresh-worker retry;
* :mod:`repro.parallel.merge` — "identical modulo wall time" report
  comparison (:func:`bench_diff`).

:func:`run_suite` is the one-call API the scripts and benchmarks use.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.parallel.jobs import Job, JobResult, check_unique_keys, execute
from repro.parallel.merge import VOLATILE_KEYS, bench_diff, strip_volatile
from repro.parallel.pool import (JobFailed, WorkerCrashed, WorkerPool,
                                 default_jobs)

__all__ = [
    "run_suite",
    "WorkerPool",
    "WorkerCrashed",
    "JobFailed",
    "default_jobs",
    "Job",
    "JobResult",
    "execute",
    "VOLATILE_KEYS",
    "strip_volatile",
    "bench_diff",
]


def run_suite(jobs: Iterable[Job], n_jobs: Optional[int] = None,
              pool: Optional[WorkerPool] = None) -> "Dict[str, JobResult]":
    """Execute a batch of jobs; return ``{key: JobResult}`` in order.

    ``n_jobs=1`` (or a single-item batch) runs inline in this process —
    no subprocess, no pickling — through the very same
    :func:`~repro.parallel.jobs.execute` bracketing the workers use, so
    it doubles as the serial reference for equivalence checks. With
    ``n_jobs > 1`` a :class:`WorkerPool` is created for the call (or
    pass ``pool=`` to reuse one across batches). ``n_jobs=None`` uses
    one worker per core, capped at the batch size.
    """
    jobs = list(jobs)
    if pool is not None:
        return pool.run(jobs)
    if n_jobs is None:
        n_jobs = default_jobs()
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    n_jobs = min(n_jobs, len(jobs)) or 1
    if n_jobs == 1:
        check_unique_keys(jobs)
        return {job.key: execute(job) for job in jobs}
    with WorkerPool(n_jobs) as worker_pool:
        return worker_pool.run(jobs)
