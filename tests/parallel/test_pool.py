"""Pool mechanics: ordering, crash isolation, failure propagation.

The job functions here are deliberately tiny module-level callables,
so these tests exercise the pool without paying for real experiments.
"""

import os
import signal

import pytest

from repro.parallel import Job, JobFailed, WorkerCrashed, run_suite


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


class TestPoolBasics:
    def test_results_in_submission_order(self):
        jobs = [echo_job(v) for v in (5, 3, 1, 4, 2)]
        results = run_suite(jobs, n_jobs=2)
        assert list(results) == [job.key for job in jobs]
        assert [r.payload["value"] for r in results.values()] == [5, 3, 1, 4, 2]

    def test_no_job_runs_in_the_parent(self):
        results = run_suite([echo_job(v) for v in range(4)], n_jobs=2)
        assert os.getpid() not in {r.payload["pid"] for r in results.values()}

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_suite([echo_job(1), echo_job(1)], n_jobs=2)

    def test_rejects_zero_workers(self):
        # The worker count is checked before it is clamped to the batch
        # size, so not even an empty batch may ask for zero workers.
        with pytest.raises(ValueError, match="n_jobs"):
            run_suite([], n_jobs=0)


class TestCrashIsolation:
    def test_sigkilled_worker_detected_and_job_retried(self, tmp_path):
        marker = str(tmp_path / "first-attempt")
        results = run_suite([kill_once_job(marker), echo_job(1)], n_jobs=2)
        assert results["kill-once"].payload["survived"] is True

    def test_bystanders_lost_with_the_executor_complete(self, tmp_path):
        marker = str(tmp_path / "first-attempt")
        jobs = [kill_once_job(marker), echo_job(1), echo_job(2)]
        results = run_suite(jobs, n_jobs=2)
        assert list(results) == [job.key for job in jobs]
        assert results["kill-once"].payload["survived"] is True
        assert results["echo:1"].payload["value"] == 1
        assert results["echo:2"].payload["value"] == 2

    def test_repeated_crash_raises_worker_crashed(self):
        with pytest.raises(WorkerCrashed, match="always-kill"):
            run_suite([always_kill_job(), echo_job(0)], n_jobs=2)

    def test_bystander_is_never_blamed(self):
        with pytest.raises(WorkerCrashed) as info:
            run_suite([always_kill_job(), echo_job(1)], n_jobs=2)
        assert "always-kill" in str(info.value)
        assert "echo:1" not in str(info.value)

    def test_job_exception_propagates_with_traceback(self):
        with pytest.raises(JobFailed, match="deliberate job failure") as info:
            run_suite([raise_job(), echo_job(1)], n_jobs=2)
        assert info.value.key == "raise"
        assert "deliberately_raise" in info.value.remote_traceback


class TestRunSuite:
    def test_inline_path_matches_pool_path(self):
        jobs = [echo_job(v) for v in range(4)]
        inline = run_suite(jobs, n_jobs=1)
        pooled = run_suite(jobs, n_jobs=2)
        assert list(inline) == list(pooled)
        assert [r.payload["value"] for r in inline.values()] == (
            [r.payload["value"] for r in pooled.values()])
        # Inline really is in-process.
        assert all(r.payload["pid"] == os.getpid() for r in inline.values())

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
