"""Pool mechanics: persistence, crash isolation, failure propagation.

The jobs here are deliberately tiny module-level dataclasses (the pool
only requires ``.key``/``.run()``), so these tests exercise the pool
without paying for real experiments.
"""

import os
import signal
from dataclasses import dataclass

import pytest

from repro.parallel import JobFailed, WorkerCrashed, WorkerPool, run_suite


@dataclass(frozen=True)
class EchoJob:
    value: int

    @property
    def key(self) -> str:
        return f"echo:{self.value}"

    def run(self):
        return {"value": self.value, "pid": os.getpid()}


@dataclass(frozen=True)
class KillOnceJob:
    """SIGKILLs its worker on the first attempt, succeeds on retry.

    The marker file records that the first attempt happened; the
    retried job (on a fresh worker) finds it and completes.
    """

    marker: str

    @property
    def key(self) -> str:
        return "kill-once"

    def run(self):
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return {"survived": True}


@dataclass(frozen=True)
class AlwaysKillJob:
    @property
    def key(self) -> str:
        return "always-kill"

    def run(self):  # pragma: no cover - never returns
        os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class RaiseJob:
    @property
    def key(self) -> str:
        return "raise"

    def run(self):
        raise RuntimeError("deliberate job failure")


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as shared:
        yield shared


class TestPoolBasics:
    def test_results_in_submission_order(self, pool):
        jobs = [EchoJob(v) for v in (5, 3, 1, 4, 2)]
        results = pool.run(jobs)
        assert list(results) == [job.key for job in jobs]
        assert [r.payload["value"] for r in results.values()] == [5, 3, 1, 4, 2]

    def test_workers_are_persistent_across_runs(self, pool):
        first = pool.run([EchoJob(1), EchoJob(2), EchoJob(3), EchoJob(4)])
        second = pool.run([EchoJob(5), EchoJob(6), EchoJob(7), EchoJob(8)])
        pids = {r.payload["pid"] for r in first.values()}
        pids |= {r.payload["pid"] for r in second.values()}
        # Every job ran in one of the two pooled processes, none in the
        # parent: spawn-once, reuse forever.
        assert pids <= set(pool.worker_pids())
        assert os.getpid() not in pids

    def test_duplicate_keys_rejected(self, pool):
        with pytest.raises(ValueError, match="duplicate"):
            pool.run([EchoJob(1), EchoJob(1)])

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            WorkerPool(0)

    def test_attempts_defaults_to_one(self, pool):
        results = pool.run([EchoJob(9)])
        assert results["echo:9"].attempts == 1


class TestCrashIsolation:
    def test_sigkilled_worker_detected_and_job_retried(self, tmp_path):
        marker = str(tmp_path / "first-attempt")
        with WorkerPool(2) as pool:
            before = set(pool.worker_pids())
            results = pool.run([KillOnceJob(marker), EchoJob(1), EchoJob(2)])
            assert results["kill-once"].payload["survived"] is True
            assert results["kill-once"].attempts == 2
            # The bystander jobs were unaffected...
            assert results["echo:1"].payload["value"] == 1
            # ...and the dead slot was refilled with a fresh process.
            assert before != set(pool.worker_pids())

    def test_repeated_crash_raises_worker_crashed(self):
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerCrashed, match="always-kill"):
                pool.run([AlwaysKillJob()])
            # The pool stays usable after giving up on the job.
            results = pool.run([EchoJob(7)])
            assert results["echo:7"].payload["value"] == 7

    def test_job_exception_propagates_with_traceback(self, pool):
        with pytest.raises(JobFailed, match="deliberate job failure"):
            pool.run([RaiseJob()])
        results = pool.run([EchoJob(11)])
        assert results["echo:11"].payload["value"] == 11

    def test_closed_pool_rejects_runs(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.run([EchoJob(1)])


class TestRunSuite:
    def test_inline_path_matches_pool_path(self, pool):
        jobs = [EchoJob(v) for v in range(4)]
        inline = run_suite(jobs, n_jobs=1)
        pooled = pool.run(jobs)
        assert list(inline) == list(pooled)
        assert [r.payload["value"] for r in inline.values()] == (
            [r.payload["value"] for r in pooled.values()])
        # Inline really is in-process.
        assert all(r.payload["pid"] == os.getpid() for r in inline.values())

    def test_run_suite_reuses_given_pool(self, pool):
        results = run_suite([EchoJob(42)], pool=pool)
        assert results["echo:42"].payload["pid"] in pool.worker_pids()

    def test_run_suite_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            run_suite([EchoJob(1)], n_jobs=0)

    def test_run_suite_inline_duplicate_keys(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_suite([EchoJob(1), EchoJob(1)], n_jobs=1)
