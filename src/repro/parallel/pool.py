"""Persistent-worker process pool with crash isolation.

The pool spawns ``n_workers`` processes *once* and reuses them for
every job, so the interpreter start plus the ~0.3 s ``repro`` package
import is paid once per worker, not once per job. Each worker owns one
duplex pipe; the parent dispatches ``(key, job)`` messages to idle
workers and multiplexes completions with
:func:`multiprocessing.connection.wait`.

Crash isolation: a worker that dies mid-job (segfault, OOM kill,
``SIGKILL``) closes its pipe, which :func:`~multiprocessing.connection.wait`
reports as readable and ``recv`` turns into ``EOFError``. The parent
reaps the corpse, spawns a *fresh* worker (never reuses a possibly
wedged one), and re-dispatches the lost job exactly once; a second
death of the same job raises :class:`WorkerCrashed`. Jobs that raise a
normal exception are not retried — the traceback travels back and
:class:`JobFailed` re-raises it in the parent.

Determinism: results are keyed by ``job.key`` and returned in
*submission* order, never completion order, so downstream merging is
independent of worker scheduling.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from collections import deque
from multiprocessing import connection
from typing import Dict, Iterable, List, Optional

from repro.parallel.jobs import JobResult, check_unique_keys, execute

__all__ = ["WorkerPool", "WorkerCrashed", "JobFailed", "default_jobs"]


class WorkerCrashed(RuntimeError):
    """A job killed its worker twice (one fresh-worker retry allowed)."""


class JobFailed(RuntimeError):
    """A job raised inside a worker; carries the remote traceback."""

    def __init__(self, key: str, remote_traceback: str):
        super().__init__(f"job {key!r} failed in worker:\n{remote_traceback}")
        self.key = key
        self.remote_traceback = remote_traceback


def default_jobs() -> int:
    """Worker count when the caller does not choose: one per core."""
    return max(1, os.cpu_count() or 1)


def _worker_main(conn) -> None:
    # Pre-import the expensive packages so every job dispatched to this
    # worker starts hot. Under the fork start method this is inherited
    # and effectively free; under spawn it is the once-per-worker cost
    # the pool exists to amortize.
    import repro.chaos  # noqa: F401
    import repro.experiments  # noqa: F401

    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if message is None:
            break
        key, job = message
        try:
            result = execute(job)
        except BaseException:
            conn.send(("error", key, traceback.format_exc()))
        else:
            conn.send(("ok", key, result))
    conn.close()


class _Worker:
    """One pool slot: a process, its pipe, and the job it holds."""

    def __init__(self, ctx):
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_worker_main, args=(child_conn,),
                                   daemon=True)
        self.process.start()
        child_conn.close()
        self.current = None  # (job, attempt) while busy

    @property
    def busy(self) -> bool:
        return self.current is not None

    def dispatch(self, job, attempt: int) -> None:
        self.conn.send((job.key, job))
        self.current = (job, attempt)

    def shutdown(self, timeout: float = 5.0) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=timeout)
        self.process.close()


class WorkerPool:
    """Spawn-once process pool executing picklable jobs.

    Usable as a context manager::

        with WorkerPool(4) as pool:
            results = pool.run(jobs)   # {key: JobResult}, submission order

    ``max_retries`` bounds fresh-worker retries per job after a worker
    death (default 1, per the crash-isolation contract).
    """

    def __init__(self, n_workers: int, max_retries: int = 1,
                 start_method: Optional[str] = None):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.max_retries = max_retries
        self._workers: List[_Worker] = [_Worker(self._ctx)
                                        for _ in range(n_workers)]
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.shutdown()
        self._workers = []

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def worker_pids(self) -> List[int]:
        return [worker.process.pid for worker in self._workers]

    # -- execution ------------------------------------------------------
    def run(self, jobs: Iterable) -> "Dict[str, JobResult]":
        """Execute every job; return ``{key: JobResult}`` in submission order.

        Raises :class:`JobFailed` on the first job exception and
        :class:`WorkerCrashed` when a job kills ``max_retries + 1``
        workers. Either way the pool stays usable for further ``run``
        calls (crashed slots are already refilled).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        jobs = list(jobs)
        keys = check_unique_keys(jobs)

        pending = deque((job, 1) for job in jobs)
        done: Dict[str, JobResult] = {}
        failure: Optional[BaseException] = None
        while len(done) < len(jobs) and failure is None:
            self._dispatch_pending(pending)
            busy = [worker for worker in self._workers if worker.busy]
            if not busy:  # pragma: no cover - all pending lost to failure
                break
            ready = connection.wait([worker.conn for worker in busy])
            for conn in ready:
                worker = next(w for w in busy if w.conn is conn)
                try:
                    status, key, payload = worker.conn.recv()
                except EOFError:
                    failure = self._handle_crash(worker, pending)
                    if failure is not None:
                        break
                    continue
                job, attempt = worker.current
                worker.current = None
                if status == "error":
                    failure = JobFailed(key, payload)
                    break
                payload.attempts = attempt
                done[key] = payload
        if failure is not None:
            self._drain()
            raise failure
        return {key: done[key] for key in keys}

    def _dispatch_pending(self, pending: deque) -> None:
        for index, worker in enumerate(self._workers):
            if not pending:
                return
            if worker.busy:
                continue
            if not worker.process.is_alive():
                # Died while idle (rare); replace the slot silently.
                self._replace(worker)
                worker = self._workers[index]
            worker.dispatch(*pending.popleft())

    def _handle_crash(self, worker: "_Worker", pending: deque):
        """Reap a dead worker; requeue its job or return the error."""
        job, attempt = worker.current
        worker.process.join(timeout=1.0)
        exitcode = worker.process.exitcode
        self._replace(worker)
        if attempt > self.max_retries:
            return WorkerCrashed(
                f"job {job.key!r} killed {attempt} workers "
                f"(last exitcode {exitcode}); giving up")
        # Front of the queue: the retry lands on the next free worker.
        pending.appendleft((job, attempt + 1))
        return None

    def _replace(self, worker: "_Worker") -> None:
        index = self._workers.index(worker)
        try:
            worker.conn.close()
            worker.process.join(timeout=1.0)
            worker.process.close()
        except (ValueError, OSError):  # pragma: no cover - defensive
            pass
        self._workers[index] = _Worker(self._ctx)

    def _drain(self) -> None:
        """After a failure: recycle every busy worker so state is clean.

        A busy worker may still be mid-job; rather than waiting an
        unbounded time for a result nobody wants, replace those slots
        with fresh processes.
        """
        for worker in list(self._workers):
            if worker.busy:
                worker.process.terminate()
                self._replace(worker)
