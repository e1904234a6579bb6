"""Multi-process campaign execution: a master and N pre-forked workers.

Every execution tier below this one is *simulated* concurrency: the
cooperative :class:`~repro.engine.scheduler.MultiSessionEngine` interleaves
sessions inside one Python interpreter and account progress in virtual kernel ticks.  This
module is the first layer where parallelism is physical.  Following the
nginx-style master/worker pattern (a persistent master process, N workers
forked once, no per-job process creation), a :class:`ProcessWorkerPool`
keeps ``num_workers`` OS processes alive and a master loop shards campaign
jobs across them, so independent attack cells burn real CPU (and overlap
real blocking time) on real cores.

Live sessions hold kernels, generators and monitors -- none of that can
cross a process boundary -- so the unit shipped to a worker is never a
session but a :class:`ProcessJob`: a picklable, scenario-style payload plus
a ``"module:function"`` runner reference the worker resolves by import.
That keeps the protocol spawn-safe (nothing closure-shaped is pickled) and
generic: the engine layer knows nothing about attacks; the runner the
:mod:`repro.api` layer registers rebuilds each cell from its spec payload
on the worker side exactly the way the virtual backend builds it in
process, which is why the two backends produce byte-identical outcomes.

Scheduling follows the virtual scheduler's shape so the result type can stay
backend-agnostic: jobs are sharded round-robin into per-worker run queues,
the master admits one job at a time to each free worker, and a worker whose
own queue runs dry *steals* the tail of the longest remaining queue
(``CampaignExecutionResult.steals`` counts these).  Results are marshalled
back over a shared queue and re-ordered by submission index, so callers see
the same submission-order ``ScheduledJobResult`` list the virtual scheduler
produces -- with ``virtual_elapsed`` still metered in kernel ticks by the
worker-side session, and wall time left to the caller's clock.
"""

from __future__ import annotations

import dataclasses
import importlib
import multiprocessing
import queue
import time
import traceback
from collections import deque
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.engine.scheduler import CampaignExecutionResult, HaltPolicy, ScheduledJobResult
from repro.engine.session import SessionState

#: Keys a runner's result mapping must carry back to the master.
RESULT_KEYS = frozenset({"state", "rounds", "virtual_elapsed", "value"})


class WorkerError(RuntimeError):
    """A worker process failed, died, or timed out mid-campaign."""


@dataclasses.dataclass(frozen=True)
class ProcessJob:
    """One schedulable unit for the process tier.

    ``runner`` is a ``"module:function"`` reference resolved *inside the
    worker process*; ``payload`` is the picklable, JSON-style description
    (an attack/spec cell, a scenario, ...) the runner rebuilds the real work
    from.  The runner must return a mapping with the :data:`RESULT_KEYS`:
    the terminal :class:`~repro.engine.session.SessionState` value (or
    ``None``), the session's lockstep round count, its virtual-tick
    consumption, and the finalized (picklable) result value.
    """

    name: str
    runner: str
    payload: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if ":" not in self.runner:
            raise ValueError(
                f"runner must be a 'module:function' reference, got {self.runner!r}"
            )


def resolve_runner(reference: str) -> Callable[[Mapping[str, Any]], Mapping[str, Any]]:
    """Import a ``"module:function"`` runner reference (the worker-side half)."""
    module_name, _, attribute = reference.partition(":")
    if not module_name or not attribute:
        raise ValueError(f"runner must be a 'module:function' reference, got {reference!r}")
    module = importlib.import_module(module_name)
    runner = getattr(module, attribute, None)
    if not callable(runner):
        raise ValueError(f"runner {reference!r} did not resolve to a callable")
    return runner


def _worker_main(worker_id: int, inbox, results) -> None:
    """One worker's loop: pull a job, run it, ship the result; None stops us.

    Runners are resolved once per reference and cached for the worker's
    lifetime -- the no-per-job-process-creation half of the master/worker
    pattern.  Failures are caught and marshalled back as ``"error"`` results
    (with the formatted traceback) so one bad cell fails the campaign with a
    diagnosis instead of a hung master.
    """
    runners: dict[str, Callable[[Mapping[str, Any]], Mapping[str, Any]]] = {}
    while True:
        item = inbox.get()
        if item is None:
            return
        index, name, runner_ref, payload = item
        try:
            runner = runners.get(runner_ref)
            if runner is None:
                runner = runners[runner_ref] = resolve_runner(runner_ref)
            outcome = dict(runner(payload))
            missing = RESULT_KEYS - set(outcome)
            if missing:
                raise ValueError(
                    f"runner {runner_ref!r} result is missing keys: {sorted(missing)}"
                )
            results.put((worker_id, index, "ok", outcome))
        except Exception:
            results.put(
                (worker_id, index, "error", {"job": name, "traceback": traceback.format_exc()})
            )


def _default_context() -> multiprocessing.context.BaseContext:
    """Fork where the platform offers it (cheap warm workers), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ProcessWorkerPool:
    """A persistent master over N pre-forked worker processes.

    The pool is the long-lived tier: workers are created once (``start`` /
    context-manager entry) and reused across any number of :meth:`run`
    calls, so a campaign driver pays process creation once per fleet, not
    once per job.  ``job_timeout`` bounds how long the master waits for any
    single result before declaring the fleet wedged; a worker dying mid-job
    is detected and reported rather than waited on forever.
    """

    def __init__(
        self,
        num_workers: int = 1,
        *,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
        job_timeout: float = 300.0,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.job_timeout = job_timeout
        self._context = mp_context if mp_context is not None else _default_context()
        self._processes: list[multiprocessing.process.BaseProcess] = []
        self._inboxes: list[Any] = []
        self._results: Optional[Any] = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def started(self) -> bool:
        """True while the worker fleet is alive."""
        return bool(self._processes)

    def start(self) -> "ProcessWorkerPool":
        """Fork the worker fleet (idempotent)."""
        if self.started:
            return self
        self._results = self._context.Queue()
        for worker_id in range(self.num_workers):
            inbox = self._context.Queue()
            process = self._context.Process(
                target=_worker_main,
                args=(worker_id, inbox, self._results),
                name=f"campaign-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            self._inboxes.append(inbox)
            self._processes.append(process)
        return self

    def close(self) -> None:
        """Stop every worker: sentinel first, terminate stragglers."""
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue already torn down
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive teardown
                process.terminate()
                process.join(timeout=5.0)
        self._processes = []
        self._inboxes = []
        self._results = None

    def __enter__(self) -> "ProcessWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the master loop -------------------------------------------------------

    def _next_result(self):
        """Block for the next worker result, watching for dead workers."""
        deadline = time.monotonic() + self.job_timeout
        while True:
            try:
                return self._results.get(timeout=0.2)
            except queue.Empty:
                for process in self._processes:
                    if not process.is_alive():
                        raise WorkerError(
                            f"worker {process.name} died mid-campaign "
                            f"(exitcode {process.exitcode})"
                        ) from None
                if time.monotonic() >= deadline:
                    raise WorkerError(
                        f"no worker result within {self.job_timeout}s; "
                        "campaign declared wedged"
                    ) from None

    def run(
        self,
        jobs: Sequence[ProcessJob],
        *,
        halt_policy: HaltPolicy = HaltPolicy.PER_SESSION,
        rounds_per_turn: int = 1,
        parallelism_hint: Optional[int] = None,
    ) -> CampaignExecutionResult:
        """Run *jobs* across the worker fleet; results in submission order.

        ``parallelism_hint`` is what the result records as its worker count
        (defaults to the pool size) -- the executor uses it so a pool clamped
        below the requested worker count still reports the caller's request,
        exactly like the virtual scheduler reports its configured
        ``parallelism`` even when jobs are fewer.  ``rounds_per_turn`` is
        recorded for result-shape parity but does not batch anything here:
        each worker runs its cell to completion in one go.

        Halt semantics under ``HALT_ALL``: the first HALTED result stops
        admission (queued jobs are ``skipped``), and cells already in flight
        on other workers cannot be interrupted mid-run, so their results are
        marked ``truncated`` and their values dropped -- the process-tier
        analogue of the virtual scheduler halting live stragglers: neither
        backend ever reports an outcome for a cell the halt reached first.
        """
        if not self.started:
            raise WorkerError("pool is not started; use `with ProcessWorkerPool(...) as pool`")
        jobs = list(jobs)
        recorded_parallelism = (
            parallelism_hint if parallelism_hint is not None else self.num_workers
        )
        worker_elapsed = [0] * max(recorded_parallelism, self.num_workers)
        if not jobs:
            return CampaignExecutionResult(
                jobs=[],
                scheduler_turns=0,
                parallelism=recorded_parallelism,
                rounds_per_turn=rounds_per_turn,
                worker_elapsed=worker_elapsed,
                max_live_sessions=0,
                backend="process",
            )

        results: list[Optional[ScheduledJobResult]] = [None] * len(jobs)
        backlog = [deque() for _ in range(self.num_workers)]
        for index, job in enumerate(jobs):
            backlog[index % self.num_workers].append((index, job))
        in_flight: list[Optional[int]] = [None] * self.num_workers
        truncated: set[int] = set()
        campaign_halted = False
        steals = 0
        turns = 0
        max_live = 0

        def admit(worker: int) -> bool:
            """Give *worker* its next job: own queue first, then steal."""
            nonlocal steals
            source = worker
            if not backlog[worker]:
                source = max(range(self.num_workers), key=lambda w: len(backlog[w]))
                if not backlog[source]:
                    return False
                steals += 1
            index, job = (
                backlog[source].popleft() if source == worker else backlog[source].pop()
            )
            self._inboxes[worker].put((index, job.name, job.runner, dict(job.payload)))
            in_flight[worker] = index
            return True

        while True:
            if not campaign_halted:
                for worker in range(self.num_workers):
                    if in_flight[worker] is None:
                        admit(worker)
            live = sum(1 for index in in_flight if index is not None)
            max_live = max(max_live, live)
            if live == 0:
                break
            turns += 1
            worker, index, status, outcome = self._next_result()
            in_flight[worker] = None
            if status == "error":
                raise WorkerError(
                    f"job {outcome['job']!r} failed on worker {worker}:\n"
                    f"{outcome['traceback']}"
                )
            state = SessionState(outcome["state"]) if outcome["state"] is not None else None
            was_truncated = index in truncated
            results[index] = ScheduledJobResult(
                name=jobs[index].name,
                index=index,
                worker=worker,
                state=state,
                value=None if was_truncated else outcome["value"],
                rounds=outcome["rounds"],
                virtual_elapsed=outcome["virtual_elapsed"],
                truncated=was_truncated,
            )
            worker_elapsed[worker] += outcome["virtual_elapsed"]
            if (
                state is SessionState.HALTED
                and halt_policy is HaltPolicy.HALT_ALL
                and not campaign_halted
                and not was_truncated
            ):
                campaign_halted = True
                # In-flight siblings cannot be stopped mid-cell from here;
                # their eventual results are demoted to truncated (no value).
                truncated.update(i for i in in_flight if i is not None)
                for run_queue in backlog:
                    run_queue.clear()

        for index, result in enumerate(results):
            if result is None:
                results[index] = ScheduledJobResult(jobs[index].name, index, skipped=True)

        return CampaignExecutionResult(
            jobs=results,
            scheduler_turns=turns,
            parallelism=recorded_parallelism,
            rounds_per_turn=rounds_per_turn,
            worker_elapsed=worker_elapsed,
            max_live_sessions=max_live,
            backend="process",
            steals=steals,
        )


class ProcessCampaignExecutor:
    """One campaign through a (possibly borrowed) process worker fleet.

    The one-shot counterpart of :class:`ProcessWorkerPool`: construct it with
    the jobs and a worker count, call :meth:`run`, get the backend-agnostic
    :class:`~repro.engine.scheduler.CampaignExecutionResult`.  The fleet is
    clamped to the job count (idle pre-forked workers would be pure startup
    cost) while the result still reports the requested ``workers`` -- the
    same accounting shape the virtual scheduler uses.  Pass ``pool`` to
    reuse a long-lived fleet across campaigns (the persistent-master
    pattern); the executor then neither starts nor closes it.
    """

    def __init__(
        self,
        jobs: Sequence[ProcessJob] = (),
        *,
        workers: int = 1,
        halt_policy: HaltPolicy = HaltPolicy.PER_SESSION,
        rounds_per_turn: int = 1,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
        job_timeout: float = 300.0,
        pool: Optional[ProcessWorkerPool] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if rounds_per_turn < 1:
            raise ValueError(f"rounds_per_turn must be >= 1, got {rounds_per_turn}")
        self.jobs = list(jobs)
        self.workers = workers
        self.halt_policy = halt_policy
        self.rounds_per_turn = rounds_per_turn
        self.mp_context = mp_context
        self.job_timeout = job_timeout
        self.pool = pool

    def run(self) -> CampaignExecutionResult:
        """Run every job across the fleet (or no fleet at all for no jobs)."""
        if not self.jobs:
            return CampaignExecutionResult(
                jobs=[],
                scheduler_turns=0,
                parallelism=self.workers,
                rounds_per_turn=self.rounds_per_turn,
                worker_elapsed=[0] * self.workers,
                max_live_sessions=0,
                backend="process",
            )
        if self.pool is not None:
            return self.pool.run(
                self.jobs,
                halt_policy=self.halt_policy,
                rounds_per_turn=self.rounds_per_turn,
                parallelism_hint=self.workers,
            )
        fleet_size = min(self.workers, len(self.jobs))
        with ProcessWorkerPool(
            fleet_size, mp_context=self.mp_context, job_timeout=self.job_timeout
        ) as pool:
            return pool.run(
                self.jobs,
                halt_policy=self.halt_policy,
                rounds_per_turn=self.rounds_per_turn,
                parallelism_hint=self.workers,
            )


def run_process_jobs(
    jobs: Sequence[ProcessJob],
    *,
    workers: int = 1,
    halt_policy: HaltPolicy = HaltPolicy.PER_SESSION,
    rounds_per_turn: int = 1,
    mp_context: Optional[multiprocessing.context.BaseContext] = None,
    job_timeout: float = 300.0,
    pool: Optional[ProcessWorkerPool] = None,
) -> CampaignExecutionResult:
    """Build a :class:`ProcessCampaignExecutor` over *jobs* and run it."""
    return ProcessCampaignExecutor(
        jobs,
        workers=workers,
        halt_policy=halt_policy,
        rounds_per_turn=rounds_per_turn,
        mp_context=mp_context,
        job_timeout=job_timeout,
        pool=pool,
    ).run()
