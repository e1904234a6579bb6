"""The engine: one cooperative loop that steps N-variant sessions to the end.

A *job* is a lazily built session plus the finalizer that turns the finished
session into the caller's result value.  The engine admits up to
``parallelism`` jobs at a time (default: every job at once), gives each live
session ``rounds_per_turn`` lockstep rounds per scheduling turn round-robin,
and admits the next pending job the moment a worker slot frees up.  The
fixed rotation keeps runs reproducible: jobs never observe each other, so a
session's alarms and responses are the same whether it runs alone or
interleaved with any number of siblings, at any ``parallelism`` and any
``rounds_per_turn``.

The two historical front ends are the two ends of the same knob range:

* a *fleet* -- :class:`MultiSessionEngine` over ready-made sessions (or fed
  through the admission-controlled :meth:`MultiSessionEngine.offer`), every
  session admitted at once, one round per turn;
* a *campaign* -- :func:`run_jobs` over lazily built cells, a bounded worker
  pool (``parallelism=1`` is the strictly serial campaign) with batched
  rounds, so a large cross product never holds more than ``parallelism``
  simulated hosts alive.

Virtual-time accounting follows parallel-hardware semantics: jobs that
occupied the same worker slot ran back-to-back on it, so a slot's elapsed
time is the *sum* of its jobs' tick consumption while the run's elapsed time
is the *max* over slots.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.engine.session import NVariantSession, SessionState


class HaltPolicy(enum.Enum):
    """What one session's halt (monitor alarm) means for the rest of the run."""

    #: Each session applies its own halt-on-divergence policy; siblings and
    #: pending jobs are unaffected (the default -- an attack campaign's halted
    #: cells are its data points).
    PER_SESSION = "per-session"
    #: The first halted session stops the whole run: live siblings are halted
    #: at the end of that turn and marked truncated, pending jobs are skipped.
    HALT_ALL = "halt-all"
    #: The campaign-era spelling of PER_SESSION.
    PER_CELL = "per-session"

    @classmethod
    def _missing_(cls, value):
        # Campaign scenario files spell the policies "per-cell"/"halt-campaign".
        return {"per-cell": cls.PER_SESSION, "halt-campaign": cls.HALT_ALL}.get(value)


#: The campaign-era name of :class:`HaltPolicy`.
CampaignHaltPolicy = HaltPolicy


@dataclasses.dataclass
class CampaignJob:
    """One schedulable unit: a lazy session plus its result finalizer."""

    name: str
    start: Callable[[], NVariantSession]
    finish: Callable[[NVariantSession], Any] = NVariantSession.result


@dataclasses.dataclass
class ScheduledJobResult:
    """Outcome of one job after the engine finished.

    ``skipped`` jobs never started (a fleet-wide halt came first);
    ``truncated`` jobs were live when the run halted and were stopped
    mid-run, so they carry no finalized value -- treating their partial state
    as a real outcome would fabricate result cells.
    """

    name: str
    index: int
    worker: Optional[int] = None
    state: Optional[SessionState] = None
    value: Any = None
    rounds: int = 0
    virtual_elapsed: int = 0
    skipped: bool = False
    truncated: bool = False
    #: Alarms the session's monitor raised; None where the backend does not
    #: report them (process-tier workers ship only the procpool result keys).
    alarms: Optional[int] = None


@dataclasses.dataclass
class CampaignExecutionResult:
    """Per-job results plus the engine's aggregate accounting.

    The type is backend-agnostic: the cooperative virtual-time engine in
    this module and the multi-process tier in :mod:`repro.engine.procpool`
    both produce it, distinguished only by :attr:`backend` (and the process
    tier's :attr:`steals` counter).  ``virtual_elapsed`` stays metered in
    kernel ticks either way; wall-clock time is the caller's business.
    """

    jobs: list[ScheduledJobResult]
    scheduler_turns: int
    parallelism: int
    rounds_per_turn: int
    worker_elapsed: list[int]
    #: Peak number of simultaneously live sessions (<= parallelism).
    max_live_sessions: int
    #: Which execution tier produced this result ("virtual" or "process").
    backend: str = "virtual"
    #: Process tier only: jobs a worker took from another slot's run queue.
    steals: int = 0

    def values(self) -> list[Any]:
        """Every job's finalized value, in submission order."""
        return [job.value for job in self.jobs]

    def job(self, name: str) -> ScheduledJobResult:
        """Look one job's outcome up by name."""
        for entry in self.jobs:
            if entry.name == name:
                return entry
        raise KeyError(f"no job named {name!r}")

    @property
    def completed_jobs(self) -> list[ScheduledJobResult]:
        """Jobs whose session ran to its own terminal state."""
        return [job for job in self.jobs if not job.skipped and not job.truncated]

    @property
    def skipped_jobs(self) -> list[ScheduledJobResult]:
        """Jobs never started because the run halted first."""
        return [job for job in self.jobs if job.skipped]

    @property
    def truncated_jobs(self) -> list[ScheduledJobResult]:
        """Jobs stopped mid-run by a fleet-wide halt (no finalized value)."""
        return [job for job in self.jobs if job.truncated]

    @property
    def total_alarms(self) -> int:
        """Alarms raised across every job that reported its count."""
        return sum(job.alarms or 0 for job in self.jobs)

    @property
    def virtual_elapsed(self) -> int:
        """Elapsed virtual time: max over concurrent worker slots."""
        return max(self.worker_elapsed, default=0)

    @property
    def virtual_elapsed_sequential(self) -> int:
        """What the same jobs would cost run back-to-back on one worker."""
        return sum(job.virtual_elapsed for job in self.jobs)

    def speedup(self) -> float:
        """Sequential over concurrent elapsed time (the worker-pool win).

        An empty run has no measurement to form a ratio from, so the result
        is ``nan`` -- never ``0.0``, which would read as "measured, and
        infinitely slow".
        """
        if not self.virtual_elapsed:
            return float("nan")
        return self.virtual_elapsed_sequential / self.virtual_elapsed

    def describe(self) -> str:
        """Readable multi-line summary."""
        lines = [
            f"jobs: {len(self.jobs)} (completed {len(self.completed_jobs)}, "
            f"truncated {len(self.truncated_jobs)}, skipped {len(self.skipped_jobs)}) "
            f"on {self.parallelism} workers",
            f"virtual elapsed: {self.virtual_elapsed} ticks concurrent, "
            f"{self.virtual_elapsed_sequential} sequential "
            f"({self.speedup():.2f}x)",
        ]
        return "\n".join(lines)


@dataclasses.dataclass(slots=True)
class _LiveJob:
    """Internal bookkeeping for one admitted job."""

    index: int
    job: CampaignJob
    session: NVariantSession
    worker: int


class MultiSessionEngine:
    """Round-robin worker pool over lazily started N-variant sessions.

    *jobs* may mix :class:`CampaignJob` entries and ready-made sessions (a
    session is the job that starts as itself and finishes as its
    :class:`~repro.core.nvariant.NVariantResult`).  ``parallelism=None``
    admits every job at once.  An optional *intake* policy (any object with
    the repro.load.admission protocol: ``offer(now)`` returning a decision
    with ``admitted``, plus ``released()``) guards :meth:`offer`; it is typed
    loosely so the engine stays importable without the load subsystem.
    """

    def __init__(
        self,
        jobs: Iterable[Union[CampaignJob, NVariantSession]] = (),
        *,
        parallelism: Optional[int] = None,
        rounds_per_turn: int = 1,
        halt_policy: HaltPolicy = HaltPolicy.PER_SESSION,
        name: str = "engine",
        intake: Optional[object] = None,
    ):
        if parallelism is not None and parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        if rounds_per_turn < 1:
            raise ValueError(f"rounds_per_turn must be >= 1, got {rounds_per_turn}")
        self.parallelism = parallelism
        self.rounds_per_turn = rounds_per_turn
        self.halt_policy = halt_policy
        self.name = name
        self.intake = intake
        #: Names of jobs admitted through the intake policy that have not
        #: finished yet; each holds one of the policy's slots.
        self._intake_held: set[str] = set()
        self._jobs: list[CampaignJob] = []
        for job in jobs:
            if isinstance(job, NVariantSession):
                self.add_session(job)
            else:
                self._jobs.append(job)

    @property
    def jobs(self) -> list[CampaignJob]:
        """The registered jobs, in submission order."""
        return list(self._jobs)

    def add_session(self, session: NVariantSession) -> NVariantSession:
        """Register a ready-made session; names must be unique within the engine."""
        if any(job.name == session.name for job in self._jobs):
            raise ValueError(f"duplicate session name {session.name!r}")
        self._jobs.append(CampaignJob(session.name, start=lambda: session))
        return session

    def offer(self, session: NVariantSession) -> bool:
        """Admission-controlled intake: add *session* unless the policy sheds it.

        Without an intake policy this is :meth:`add_session` returning True.
        With one, the policy sees the engine's job count as its clock (engine
        intake is load-ordered, not time-ordered) and may shed the offer; an
        accepted session holds its slot until it finishes during :meth:`run`.
        A drop-oldest decision evicts the oldest intake job that has not
        started yet; with none available the offer is still honoured.
        """
        if self.intake is None:
            self.add_session(session)
            return True
        decision = self.intake.offer(len(self._jobs))
        if not decision.admitted:
            return False
        if getattr(decision, "evict_oldest", False):
            oldest = next((job for job in self._jobs if job.name in self._intake_held), None)
            if oldest is not None:
                self._jobs.remove(oldest)
                self._release(oldest.name)
        self.add_session(session)
        self._intake_held.add(session.name)
        return True

    def _release(self, name: str) -> None:
        if name in self._intake_held:
            self._intake_held.discard(name)
            self.intake.released()

    def run(self) -> CampaignExecutionResult:
        """Step every job to completion (or to a fleet-wide halt).

        An exception from the monitor or engine layers is a framework bug:
        it propagates, annotated with the session it was stepping.  Variant
        code that crashes is contained by the session as a fault alarm.
        """
        jobs = self._jobs
        parallelism = self.parallelism or len(jobs)
        rounds_per_turn = self.rounds_per_turn
        halt_all = self.halt_policy is HaltPolicy.HALT_ALL
        running = SessionState.RUNNING
        results: list[Optional[ScheduledJobResult]] = [None] * len(jobs)
        worker_elapsed = [0] * parallelism
        pending = deque(enumerate(jobs))
        free_workers = list(range(parallelism - 1, -1, -1))  # pop() -> lowest
        live: list[_LiveJob] = []
        turns = 0
        max_live = 0

        def finalize(entry: _LiveJob, truncated: bool = False) -> None:
            session = entry.session
            results[entry.index] = ScheduledJobResult(
                name=entry.job.name,
                index=entry.index,
                worker=entry.worker,
                state=session.state,
                value=None if truncated else entry.job.finish(session),
                rounds=session.rounds,
                virtual_elapsed=session.virtual_elapsed,
                truncated=truncated,
                alarms=len(session.monitor.alarms),
            )
            worker_elapsed[entry.worker] += session.virtual_elapsed
            free_workers.append(entry.worker)
            self._release(entry.job.name)

        while True:
            while pending and free_workers:
                index, job = pending.popleft()
                live.append(_LiveJob(index, job, job.start(), free_workers.pop()))
            if not live:
                break
            if len(live) > max_live:
                max_live = len(live)
            turns += 1
            finished = []
            for entry in live:
                step = entry.session.step
                try:
                    for _ in range(rounds_per_turn):
                        if step() is not running:
                            finished.append(entry)
                            break
                except Exception as exc:
                    exc.add_note(
                        f"raised while engine {self.name!r} stepped session "
                        f"{entry.session.name!r}"
                    )
                    raise
            if not finished:
                continue
            live = [entry for entry in live if not entry.session.done]
            for entry in finished:
                finalize(entry)
            if halt_all and any(e.session.state is SessionState.HALTED for e in finished):
                # Stop the stragglers where they stand: their partial progress
                # is accounted but never finalized into a value, and the
                # pending jobs never start.
                for entry in live:
                    entry.session.halt()
                    finalize(entry, truncated=True)
                live = []
                for index, job in pending:
                    results[index] = ScheduledJobResult(job.name, index, skipped=True)
                    self._release(job.name)
                pending.clear()

        return CampaignExecutionResult(
            jobs=results,
            scheduler_turns=turns,
            parallelism=parallelism,
            rounds_per_turn=rounds_per_turn,
            worker_elapsed=worker_elapsed,
            max_live_sessions=max_live,
        )


def run_jobs(
    jobs: Sequence[CampaignJob],
    *,
    parallelism: int = 1,
    rounds_per_turn: int = 8,
    halt_policy: HaltPolicy = HaltPolicy.PER_SESSION,
) -> CampaignExecutionResult:
    """Run *jobs* as a campaign: a bounded worker pool with batched rounds."""
    return MultiSessionEngine(
        jobs,
        parallelism=parallelism,
        rounds_per_turn=rounds_per_turn,
        halt_policy=halt_policy,
    ).run()
