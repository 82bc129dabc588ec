"""Fan a batch of jobs over a standard-library process pool.

:func:`run_suite` runs ``n_jobs == 1`` inline and otherwise hands the
batch to a :class:`concurrent.futures.ProcessPoolExecutor`. Its workers
start once per batch (``fork`` where the platform has it, else
``spawn``) and import the experiment packages up front, so every job
starts hot.

Crash isolation: a worker that dies mid-job (segfault, OOM kill,
``SIGKILL``) breaks the whole executor, and every job still in flight
gets :class:`~concurrent.futures.process.BrokenProcessPool` — the
culprit is unknown. Each lost job therefore reruns once, alone, in a
fresh one-worker executor; a job that kills that worker too raises
:class:`WorkerCrashed` naming it, so a bystander is never blamed. A job
that raises a normal exception is not retried: :class:`JobFailed`
carries its remote traceback, and queued jobs are cancelled.

Determinism: results are keyed by ``job.key`` and returned in
*submission* order, never completion order, so downstream merging is
independent of worker scheduling.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterable, List, Tuple

from repro.parallel.jobs import Job, JobResult, check_unique_keys, execute

__all__ = ["run_suite", "WorkerCrashed", "JobFailed"]


class WorkerCrashed(RuntimeError):
    """A job killed its worker again when rerun alone."""


class JobFailed(RuntimeError):
    """A job raised inside a worker; carries the remote traceback."""

    def __init__(self, key: str, remote_traceback: str):
        super().__init__(f"job {key!r} failed in worker:\n{remote_traceback}")
        self.key = key
        self.remote_traceback = remote_traceback


def _preimport() -> None:
    # Under fork this is inherited and effectively free; under spawn it
    # is the once-per-worker import cost every later job skips.
    import repro.chaos  # noqa: F401
    import repro.experiments  # noqa: F401


def _run_batch(jobs: List[Job],
               n_workers: int) -> Tuple[Dict[str, JobResult], List[Job]]:
    """Run ``jobs`` on one executor; return ``(done, lost)``.

    ``lost`` holds the jobs a worker death took down with the executor.
    """
    # fork is safe here: the executor forks all of its workers before it
    # starts its manager thread, and each batch's executor is shut down
    # (its threads joined) before the next one forks.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    done: Dict[str, JobResult] = {}
    lost: List[Job] = []
    executor = ProcessPoolExecutor(n_workers, mp_context=context,
                                   initializer=_preimport)
    try:
        futures = [(job, executor.submit(execute, job)) for job in jobs]
        for job, future in futures:
            try:
                done[job.key] = future.result()
            except BrokenProcessPool:
                lost.append(job)
            except Exception as exc:
                raise JobFailed(job.key, exc.__cause__.tb) from None
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    return done, lost


def run_suite(jobs: Iterable[Job], n_jobs: int) -> "Dict[str, JobResult]":
    """Execute a batch of jobs; return ``{key: JobResult}`` in order.

    ``n_jobs=1`` (or a single-item batch) runs inline in this process —
    no subprocess, no pickling — through the very same
    :func:`~repro.parallel.jobs.execute` bracketing the workers use, so
    it doubles as the serial reference for equivalence checks. With
    ``n_jobs > 1`` the batch runs on ``min(n_jobs, len(jobs))``
    workers.
    """
    jobs = list(jobs)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    keys = check_unique_keys(jobs)
    n_jobs = min(n_jobs, len(jobs)) or 1
    if n_jobs == 1:
        return {job.key: execute(job) for job in jobs}
    done, lost = _run_batch(jobs, n_jobs)
    for job in lost:
        retried, _ = _run_batch([job], 1)
        if job.key not in retried:
            raise WorkerCrashed(
                f"job {job.key!r} killed its worker again when rerun "
                f"alone; giving up")
        done.update(retried)
    return {key: done[key] for key in keys}
