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
* :mod:`repro.parallel.pool` — :func:`run_suite`, the one entry point:
  inline for one job, else a process pool (:mod:`concurrent.futures`)
  that reruns each job a worker death took down once, alone;
* :mod:`repro.parallel.merge` — "identical modulo wall time" report
  comparison (:func:`bench_diff`).
"""

from repro.parallel.jobs import Job, JobResult, execute
from repro.parallel.merge import VOLATILE_KEYS, bench_diff
from repro.parallel.pool import JobFailed, WorkerCrashed, run_suite

__all__ = [
    "run_suite",
    "WorkerCrashed",
    "JobFailed",
    "Job",
    "JobResult",
    "execute",
    "VOLATILE_KEYS",
    "bench_diff",
]
