"""Concurrent multi-session N-variant execution engine.

The paper's ``nvexec`` framework drives one N-variant system: one set of
variants, one monitor, one lockstep loop run to completion.  This package
splits that loop in two so many systems can share one simulated fleet:

* :class:`~repro.engine.session.NVariantSession` packages one N-variant
  system's per-session state -- variant contexts, variation stack, syscall
  wrappers, and a **fresh monitor with fresh stats** -- behind a resumable
  ``step()`` that executes exactly one lockstep round.  ``session.run()``
  steps it to the end (what :func:`~repro.core.nvariant.nvexec` does).
* :class:`~repro.engine.scheduler.MultiSessionEngine` is the one engine
  loop.  It admits jobs (lazily built sessions) into up to ``parallelism``
  worker slots, gives every live session ``rounds_per_turn`` lockstep rounds
  per turn round-robin, and finalizes each job the turn its session ends.
  A fleet of ready-made sessions is every job admitted at once with one
  round per turn; :func:`~repro.engine.scheduler.run_jobs` is the campaign
  setting behind :func:`repro.api.campaign.run_campaign` (a bounded pool,
  batched rounds).

Halt policies: each session applies the paper's halt-on-divergence policy to
*itself* (``HaltPolicy.PER_SESSION``, the default -- an alarm stops the
alarming session while its siblings keep serving), or the engine applies the
fleet-wide policy (``HaltPolicy.HALT_ALL``: live siblings are halted at the
end of the turn and marked truncated, pending jobs are skipped).

The multi-process master/worker tier in :mod:`repro.engine.procpool` is the
wall-clock counterpart (``run_campaign(..., backend="process")``), producing
the same submission-order
:class:`~repro.engine.scheduler.CampaignExecutionResult`.
"""

from repro.engine.procpool import (
    ProcessCampaignExecutor,
    ProcessJob,
    ProcessWorkerPool,
    WorkerError,
    run_process_jobs,
)
from repro.engine.scheduler import (
    CampaignExecutionResult,
    CampaignHaltPolicy,
    CampaignJob,
    HaltPolicy,
    MultiSessionEngine,
    ScheduledJobResult,
    run_jobs,
)
from repro.engine.session import NVariantSession, SessionState

__all__ = [
    "CampaignExecutionResult",
    "CampaignHaltPolicy",
    "CampaignJob",
    "HaltPolicy",
    "MultiSessionEngine",
    "NVariantSession",
    "ProcessCampaignExecutor",
    "ProcessJob",
    "ProcessWorkerPool",
    "ScheduledJobResult",
    "SessionState",
    "WorkerError",
    "run_jobs",
    "run_process_jobs",
]
