"""The multi-process master/worker tier: pool mechanics without the attack layer.

These tests exercise :mod:`repro.engine.procpool` with tiny module-level
runners (resolved inside the forked workers via their ``"module:function"``
references), so they pin the engine-layer contract -- job validation,
lifecycle, submission-order marshalling, work stealing, halt semantics, and
failure propagation -- independently of :mod:`repro.api.campaign`'s cell
payloads.  The cross-backend byte-parity sweep lives in
``test_campaign_parallel.py`` (``make check-procs``).
"""

import math
import os
import time

import pytest

from repro.engine.scheduler import HaltPolicy
from repro.engine.procpool import (
    ProcessCampaignExecutor,
    ProcessJob,
    ProcessWorkerPool,
    WorkerError,
    resolve_runner,
    run_process_jobs,
)
from repro.engine.session import SessionState


# ---------------------------------------------------------------------------
# Worker-side runners (must be importable module-level functions)
# ---------------------------------------------------------------------------


def echo_runner(payload):
    """Complete immediately with the payload's value and cost."""
    if payload.get("sleep"):
        time.sleep(payload["sleep"])
    return {
        "state": SessionState.COMPLETED.value,
        "rounds": payload.get("rounds", 1),
        "virtual_elapsed": payload.get("cost", 10),
        "value": payload.get("value"),
    }


def halting_runner(payload):
    """Finish in the HALTED terminal state (a detected attack cell)."""
    return {
        "state": SessionState.HALTED.value,
        "rounds": 1,
        "virtual_elapsed": payload.get("cost", 5),
        "value": payload.get("value", "alarm"),
    }


def failing_runner(payload):
    """Raise inside the worker."""
    raise RuntimeError(f"boom: {payload.get('value')}")


def incomplete_runner(payload):
    """Violate the result-key contract."""
    return {"state": None, "value": None}


def dying_runner(payload):
    """Kill the worker process outright (no result ever ships)."""
    os._exit(3)


def _job(name, runner="test_procpool:echo_runner", **payload):
    return ProcessJob(name=name, runner=runner, payload=payload)


# ---------------------------------------------------------------------------
# Job validation and runner resolution (no processes involved)
# ---------------------------------------------------------------------------


class TestJobAndRunner:
    def test_runner_reference_must_have_module_and_function(self):
        with pytest.raises(ValueError, match="module:function"):
            ProcessJob(name="bad", runner="no-colon-here")
        with pytest.raises(ValueError, match="module:function"):
            resolve_runner(":dangling")
        with pytest.raises(ValueError, match="module:function"):
            resolve_runner("dangling:")

    def test_resolve_runner_imports_the_callable(self):
        assert resolve_runner("test_procpool:echo_runner") is echo_runner

    def test_resolve_runner_rejects_non_callables(self):
        with pytest.raises(ValueError, match="did not resolve to a callable"):
            resolve_runner("test_procpool:DEFAULT_NOT_CALLABLE")

    def test_executor_validation(self):
        with pytest.raises(ValueError):
            ProcessCampaignExecutor(workers=0)
        with pytest.raises(ValueError):
            ProcessCampaignExecutor(rounds_per_turn=0)
        with pytest.raises(ValueError):
            ProcessWorkerPool(0)


DEFAULT_NOT_CALLABLE = "just data"


# ---------------------------------------------------------------------------
# Pool lifecycle and the master loop
# ---------------------------------------------------------------------------


class TestProcessWorkerPool:
    def test_run_requires_a_started_pool(self):
        pool = ProcessWorkerPool(1)
        assert not pool.started
        with pytest.raises(WorkerError, match="not started"):
            pool.run([_job("a")])

    def test_pool_is_reusable_across_runs(self):
        with ProcessWorkerPool(2) as pool:
            assert pool.started
            first = pool.run([_job("a", value=1), _job("b", value=2)])
            second = pool.run([_job("c", value=3)])
        assert not pool.started
        assert [r.value for r in first.jobs] == [1, 2]
        assert [r.value for r in second.jobs] == [3]

    def test_results_come_back_in_submission_order(self):
        """Completion order is scrambled by sleeps; report order must not be."""
        jobs = [
            _job("slow", value="slow", sleep=0.15),
            _job("fast-1", value="fast-1"),
            _job("fast-2", value="fast-2"),
            _job("fast-3", value="fast-3"),
        ]
        result = run_process_jobs(jobs, workers=2)
        assert [r.value for r in result.jobs] == ["slow", "fast-1", "fast-2", "fast-3"]
        assert [r.index for r in result.jobs] == [0, 1, 2, 3]
        assert result.backend == "process"

    def test_idle_workers_steal_from_loaded_backlogs(self):
        """Round-robin sharding gives worker 0 all the slow jobs; worker 1
        drains its own queue and must steal the rest."""
        jobs = []
        for index in range(6):
            # Even indices shard to worker 0, odd to worker 1.
            sleep = 0.12 if index % 2 == 0 else 0.0
            jobs.append(_job(f"job-{index}", value=index, sleep=sleep, cost=7))
        result = run_process_jobs(jobs, workers=2)
        assert result.steals > 0
        assert [r.value for r in result.jobs] == list(range(6))
        assert len(result.completed_jobs) == 6
        assert sum(result.worker_elapsed) == 6 * 7

    def test_worker_exception_propagates_with_traceback(self):
        with pytest.raises(WorkerError, match="boom: 42"):
            run_process_jobs([_job("ok"), _job("bad", runner="test_procpool:failing_runner", value=42)], workers=1)

    def test_result_key_contract_is_enforced(self):
        with pytest.raises(WorkerError, match="missing keys"):
            run_process_jobs([_job("bad", runner="test_procpool:incomplete_runner")], workers=1)

    def test_dead_worker_is_detected_not_waited_on(self):
        with pytest.raises(WorkerError, match="died mid-campaign"):
            run_process_jobs([_job("dies", runner="test_procpool:dying_runner")], workers=1)

    def test_wedged_fleet_times_out(self):
        with pytest.raises(WorkerError, match="wedged"):
            run_process_jobs([_job("slow", sleep=5.0)], workers=1, job_timeout=0.5)


class TestProcessCampaignExecutor:
    def test_empty_jobs_short_circuit_without_forking(self):
        result = ProcessCampaignExecutor([], workers=4).run()
        assert result.jobs == []
        assert result.backend == "process"
        assert result.parallelism == 4
        assert math.isnan(result.speedup())

    def test_fleet_clamped_to_jobs_but_reports_requested_workers(self):
        result = run_process_jobs([_job("a", cost=3), _job("b", cost=4)], workers=8)
        assert result.parallelism == 8
        assert len(result.worker_elapsed) == 8
        # Only two workers can have run anything.
        assert sum(1 for elapsed in result.worker_elapsed if elapsed) <= 2
        assert result.virtual_elapsed_sequential == 7

    def test_borrowed_pool_is_neither_started_nor_closed(self):
        with ProcessWorkerPool(2) as pool:
            result = run_process_jobs([_job("a", value="a")], workers=5, pool=pool)
            assert pool.started
        assert result.jobs[0].value == "a"
        # The borrowed pool's size bounds execution; the request is recorded.
        assert result.parallelism == 5

    def test_halt_campaign_skips_queued_jobs(self):
        jobs = [
            _job("halts", runner="test_procpool:halting_runner"),
            _job("never-1"),
            _job("never-2"),
        ]
        result = run_process_jobs(
            jobs, workers=1, halt_policy=HaltPolicy.HALT_ALL
        )
        assert result.jobs[0].state is SessionState.HALTED
        assert result.jobs[0].value == "alarm"
        assert [r.skipped for r in result.jobs] == [False, True, True]
        assert all(r.value is None for r in result.skipped_jobs)

    def test_halt_campaign_truncates_in_flight_cells(self):
        """A sibling already running when the halt lands loses its value."""
        jobs = [
            _job("halts", runner="test_procpool:halting_runner"),
            _job("in-flight", value="should-drop", sleep=0.3),
            _job("queued-1"),
            _job("queued-2"),
        ]
        result = run_process_jobs(
            jobs, workers=2, halt_policy=HaltPolicy.HALT_ALL
        )
        assert result.jobs[0].state is SessionState.HALTED
        truncated = result.truncated_jobs
        assert [r.name for r in truncated] == ["in-flight"]
        assert all(r.value is None for r in truncated)
        # Everything still queued when the halt landed was skipped.
        assert {r.name for r in result.skipped_jobs} == {"queued-1", "queued-2"}

    def test_per_cell_policy_ignores_halts(self):
        jobs = [_job("halts", runner="test_procpool:halting_runner"), _job("runs", value="ran")]
        result = run_process_jobs(jobs, workers=1)
        assert result.jobs[0].state is SessionState.HALTED
        assert result.jobs[1].value == "ran"
        assert result.skipped_jobs == [] and result.truncated_jobs == []
