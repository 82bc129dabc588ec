"""Pool mechanics: persistence, crash isolation, failure propagation.

The job functions here are deliberately tiny module-level callables,
so these tests exercise the pool without paying for real experiments.
"""

import os
import signal

import pytest

from repro.parallel import Job, JobFailed, WorkerCrashed, WorkerPool, run_suite


def echo(value):
    return {"value": value, "pid": os.getpid()}


def kill_once(marker):
    """SIGKILL the worker on the first attempt, succeed on retry.

    The marker file records that the first attempt happened; the
    retried job (on a fresh worker) finds it and completes.
    """
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return {"survived": True}


def always_kill():  # pragma: no cover - never returns
    os.kill(os.getpid(), signal.SIGKILL)


def deliberately_raise():
    raise RuntimeError("deliberate job failure")


def echo_job(value):
    return Job(f"echo:{value}", echo, (value,))


def kill_once_job(marker):
    return Job("kill-once", kill_once, (marker,))


def always_kill_job():
    return Job("always-kill", always_kill)


def raise_job():
    return Job("raise", deliberately_raise)


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as shared:
        yield shared


class TestPoolBasics:
    def test_results_in_submission_order(self, pool):
        jobs = [echo_job(v) for v in (5, 3, 1, 4, 2)]
        results = pool.run(jobs)
        assert list(results) == [job.key for job in jobs]
        assert [r.payload["value"] for r in results.values()] == [5, 3, 1, 4, 2]

    def test_workers_are_persistent_across_runs(self, pool):
        first = pool.run([echo_job(1), echo_job(2), echo_job(3), echo_job(4)])
        second = pool.run([echo_job(5), echo_job(6), echo_job(7), echo_job(8)])
        pids = {r.payload["pid"] for r in first.values()}
        pids |= {r.payload["pid"] for r in second.values()}
        # Every job ran in one of the two pooled processes, none in the
        # parent: spawn-once, reuse forever.
        assert pids <= set(pool.worker_pids())
        assert os.getpid() not in pids

    def test_duplicate_keys_rejected(self, pool):
        with pytest.raises(ValueError, match="duplicate"):
            pool.run([echo_job(1), echo_job(1)])

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            WorkerPool(0)

    def test_attempts_defaults_to_one(self, pool):
        results = pool.run([echo_job(9)])
        assert results["echo:9"].attempts == 1


class TestCrashIsolation:
    def test_sigkilled_worker_detected_and_job_retried(self, tmp_path):
        marker = str(tmp_path / "first-attempt")
        with WorkerPool(2) as pool:
            before = set(pool.worker_pids())
            results = pool.run([kill_once_job(marker), echo_job(1), echo_job(2)])
            assert results["kill-once"].payload["survived"] is True
            assert results["kill-once"].attempts == 2
            # The bystander jobs were unaffected...
            assert results["echo:1"].payload["value"] == 1
            # ...and the dead slot was refilled with a fresh process.
            assert before != set(pool.worker_pids())

    def test_repeated_crash_raises_worker_crashed(self):
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerCrashed, match="always-kill"):
                pool.run([always_kill_job()])
            # The pool stays usable after giving up on the job.
            results = pool.run([echo_job(7)])
            assert results["echo:7"].payload["value"] == 7

    def test_job_exception_propagates_with_traceback(self, pool):
        with pytest.raises(JobFailed, match="deliberate job failure"):
            pool.run([raise_job()])
        results = pool.run([echo_job(11)])
        assert results["echo:11"].payload["value"] == 11

    def test_closed_pool_rejects_runs(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.run([echo_job(1)])


class TestRunSuite:
    def test_inline_path_matches_pool_path(self, pool):
        jobs = [echo_job(v) for v in range(4)]
        inline = run_suite(jobs, n_jobs=1)
        pooled = pool.run(jobs)
        assert list(inline) == list(pooled)
        assert [r.payload["value"] for r in inline.values()] == (
            [r.payload["value"] for r in pooled.values()])
        # Inline really is in-process.
        assert all(r.payload["pid"] == os.getpid() for r in inline.values())

    def test_run_suite_reuses_given_pool(self, pool):
        results = run_suite([echo_job(42)], pool=pool)
        assert results["echo:42"].payload["pid"] in pool.worker_pids()

    def test_run_suite_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            run_suite([echo_job(1)], n_jobs=0)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_duplicate_key_named_in_error(self, n_jobs):
        jobs = [echo_job(1), echo_job(2), echo_job(1)]
        # One check guards both paths: inline and a 2-worker pool.
        with pytest.raises(ValueError,
                           match=r"duplicate job keys: \['echo:1'\]"):
            run_suite(jobs, n_jobs=n_jobs)
