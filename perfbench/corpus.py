"""The corpus workload: the seeded mutation corpus, graded by the oracle.

A pass runs records of ``build_matrix(seed)`` once and grades the outcomes
with ``evaluate_corpus``; a cell fails on an oracle miss or a
``WorkerError``.  The untraced run's passes cycle through four interleaved
quarters of the corpus (every fourth record), the traced run's passes run
it whole.  ``corpus-inproc`` runs the cells through the program's
``run_corpus_records`` on the virtual backend, eight at a time (the campaign
scheduler).  A cell's latency is its time from admission (``cell.start``)
to grading (the end of ``cell.finish``).  Those times, the campaign's
execution record and the traced run's spans are taken from outside: while a
pass runs, the runner module's ``prepare_record`` and ``run_jobs`` -- which
``run_corpus_records`` looks up when it is called -- are replaced by
wrappers that time each cell and keep the scheduler's result.

The traced run also passes the corpus through two pre-forked workers of a
``ProcessWorkerPool`` for the process-pool metrics.  The process backend is
not an end-to-end workload of its own: its two workers and master share the
two vCPUs of the reference host with everything else on it, and across ten
seeds its throughput and p95 spread reached 0.29 and 0.46 of their medians.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pickle
import time
from typing import Optional

from repro.corpus import evaluate_corpus, runner
from repro.corpus.generator import build_matrix
from repro.corpus.runner import CORPUS_RUNNER, run_corpus_records
from repro.engine import (
    CampaignExecutionResult,
    CampaignHaltPolicy,
    ProcessJob,
    ProcessWorkerPool,
    SessionState,
    WorkerError,
)

from perfbench import cells
from perfbench.metrics import Outcome, Timed, end_to_end, median, session_layer_metrics
from perfbench.trace import (
    GcClock,
    Tracer,
    add_counts,
    attributed_ns,
    instrument_session,
    session_counts,
)
from perfbench.yardstick import Yardstick

#: Cells in flight on the virtual backend (the corpus experiment's default).
PARALLELISM = 8
#: Worker processes on the process backend: one per core of a 2-vCPU host.
WORKERS = 2
#: Shares of a traced run: untraced virtual passes, traced virtual passes,
#: then process-backend passes.
UNTRACED_SHARE, TRACED_SHARE = 0.3, 0.4
#: Set-ups per run (three in smoke mode); ``setup_s`` is their median.
SETUP_REPEATS = 41
#: An untraced pass runs every SLICES-th record, SLICES passes the corpus:
#: the host-speed yardstick then brackets about 0.4 s of work, not 1.6 s.
SLICES = 4
#: A run grades at least this many cells, so ten lie beyond p99.
MIN_CELLS = 1000


@dataclasses.dataclass
class CorpusPass:
    """What one pass over the corpus measured."""

    wall_s: float
    latencies_s: list[float]
    #: Each cell's outcome dict, dropped once graded.
    outcomes: Optional[list[dict]]
    execution: CampaignExecutionResult
    counts: dict[str, int]
    #: Process backend: summed worker compute seconds.
    busy_s: float = 0.0
    #: The host-speed factor measured around the pass (untraced runs only).
    scale: float = 1.0

    @property
    def cells(self) -> int:
        return len(self.execution.jobs)

    @property
    def rounds(self) -> list[int]:
        return [job.rounds for job in self.execution.jobs]

    @property
    def alarms(self) -> int:
        return sum(job.state is SessionState.HALTED for job in self.execution.jobs)


class CorpusBench:
    """One backend, the seeded corpus and (for processes) the worker pool."""

    def __init__(self, backend: str, seed: int, smoke: bool):
        self.backend = backend
        self.setups: list[Timed] = []
        self.matrix_s: list[float] = []
        self.pool_start_s: list[float] = []
        self.pool: Optional[ProcessWorkerPool] = None
        yardstick = Yardstick()
        for _ in range(3 if smoke else SETUP_REPEATS):
            started = time.perf_counter()
            records = build_matrix(seed)
            built = time.perf_counter()
            pool = None
            if self.backend == "process":
                pool = ProcessWorkerPool(WORKERS).start()
            ready = time.perf_counter()
            self.setups.append(Timed(ready - started, yardstick.factor()))
            self.matrix_s.append(built - started)
            self.pool_start_s.append(ready - built)
            if self.pool is not None:
                self.pool.close()
            self.pool = pool
        self.records = records[::20] if smoke else records
        self.slices = [self.records[k::SLICES] for k in range(SLICES)]

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def run_pass(
        self, records: Optional[list] = None, tracer: Optional[Tracer] = None, first_op: int = 0
    ) -> CorpusPass:
        """Run and time *records* (all by default) once.

        The process backend always runs every record, and raises
        ``WorkerError`` from the pool.
        """
        if self.backend == "process":
            return self._process_pass()
        return self._virtual_pass(self.records if records is None else records, tracer, first_op)

    def _virtual_pass(self, records: list, tracer: Optional[Tracer], first_op: int) -> CorpusPass:
        clock = time.perf_counter
        count = len(records)
        admitted = [0.0] * count
        graded = [0.0] * count
        counts: dict[str, int] = {}
        executions: list[CampaignExecutionResult] = []
        indices = iter(range(count))
        prepare_record, run_jobs = runner.prepare_record, runner.run_jobs

        def in_span(layer, fn, op):
            """*fn* itself untraced; traced, *fn* recording a span for cell *op*."""
            if tracer is None:
                return fn
            tracer.current_op = op
            return tracer.wrap(layer, fn)

        def timed_prepare(record):
            index = next(indices)  # records are prepared in order
            op = first_op + index
            cell = in_span("cell.prepare", prepare_record, op)(record)
            start, finish = cell.start, cell.finish

            def timed_start():
                admitted[index] = clock()
                session = in_span("cell.start", start, op)()
                if tracer is not None:
                    instrument_session(session, tracer, op=op)
                return session

            def timed_finish(session):
                outcome = in_span("cell.finish", finish, op)(session)
                add_counts(counts, session_counts(session))
                graded[index] = clock()
                return outcome

            cell.start, cell.finish = timed_start, timed_finish
            return cell

        def kept_run_jobs(*args, **kwargs):
            executions.append(run_jobs(*args, **kwargs))
            return executions[-1]

        campaign = kept_run_jobs if tracer is None else tracer.wrap("campaign", kept_run_jobs)
        with _replaced(runner, prepare_record=timed_prepare, run_jobs=campaign):
            started = clock()
            outcomes = run_corpus_records(records, backend="virtual", workers=PARALLELISM)
            wall_s = clock() - started
        return CorpusPass(
            wall_s=wall_s,
            latencies_s=[done - begun for begun, done in zip(admitted, graded)],
            outcomes=outcomes,
            execution=executions[0],
            counts=counts,
        )

    def _process_pass(self) -> CorpusPass:
        jobs = [
            ProcessJob(name=record.record_id, runner=cells.RUNNER, payload=record.to_dict())
            for record in self.records
        ]
        started = time.perf_counter()
        execution = self.pool.run(jobs, halt_policy=CampaignHaltPolicy.PER_CELL)
        wall = time.perf_counter() - started
        values = execution.values()
        latencies = []
        for worker in range(WORKERS):
            ends = sorted(v["t1"] for v, job in zip(values, execution.jobs) if job.worker == worker)
            latencies.extend(done - begun for begun, done in zip([started] + ends, ends))
        return CorpusPass(
            wall_s=wall,
            latencies_s=latencies,
            outcomes=[value["outcome"] for value in values],
            execution=execution,
            counts={},
            busy_s=sum(value["t1"] - value["t0"] for value in values),
        )

    def message_bytes(self, measured: CorpusPass) -> tuple[float, float]:
        """Mean pickled size of a job message and of a result message.

        Sized for the program's own runner and result mapping, as
        ``run_corpus_records`` ships them through the pool's queues.
        """
        payload = result = 0
        for index, (record, job, outcome) in enumerate(
            zip(self.records, measured.execution.jobs, measured.outcomes)
        ):
            payload += len(pickle.dumps((index, record.record_id, CORPUS_RUNNER, record.to_dict())))
            reply = {
                "state": job.state.value,
                "rounds": job.rounds,
                "virtual_elapsed": job.virtual_elapsed,
                "value": outcome,
            }
            result += len(pickle.dumps((job.worker, index, "ok", reply)))
        return payload / len(self.records), result / len(self.records)


def _failures(records: list, outcomes: list[dict]) -> int:
    """Cells whose outcome misses the oracle's expectation."""
    return len(records) - evaluate_corpus(records, outcomes).passed


@contextlib.contextmanager
def _replaced(module, **attributes):
    """Set *module*'s named attributes while open; restore them on exit."""
    saved = {name: getattr(module, name) for name in attributes}
    for name, value in attributes.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def run_corpus(*, seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    """Run the corpus workload; untraced for end-to-end, traced for layers."""
    bench = CorpusBench("virtual", seed, smoke)
    outcome = _measure(bench, seconds=seconds, trace=trace, smoke=smoke)
    if trace:
        procs = CorpusBench("process", seed, smoke)
        try:
            _measure_pool(procs, outcome, seconds=seconds, smoke=smoke)
        finally:
            procs.close()
    return outcome


def _measure(bench: CorpusBench, *, seconds: float, trace: bool, smoke: bool) -> Outcome:
    bench.run_pass()  # warm-up, not measured
    cells_per_pass = len(bench.records)
    attempted = failed = 0
    broken = False

    def timed_pass(passes: list, tracer: Optional[Tracer] = None, records=None) -> None:
        nonlocal attempted, failed, broken
        records = bench.records if records is None else records
        attempted += len(records)
        try:
            measured = bench.run_pass(records, tracer, first_op=sum(p.cells for p in passes))
        except WorkerError as error:
            print(f"  worker error, pass abandoned: {error}")
            failed += len(records)
            broken = True
            return
        failed += _failures(records, measured.outcomes)
        measured.outcomes = None  # graded; keeping them would grow memory
        passes.append(measured)

    clock = time.perf_counter

    def more(passes: list, deadline: float, minimum: int = 0) -> bool:
        if smoke or broken:
            return not passes and not broken
        return clock() < deadline or sum(p.cells for p in passes) < minimum

    if not trace:
        deadline = clock() + seconds
        passes: list[CorpusPass] = []
        yardstick = Yardstick()
        while more(passes, deadline, MIN_CELLS):
            timed_pass(passes, records=bench.slices[len(passes) % SLICES])
            passes[-1].scale = yardstick.factor()
        if not passes:
            return Outcome(attempted, failed, {}, ["no pass completed"])
        metrics, notes = end_to_end(
            sum(p.cells for p in passes),
            [Timed(p.wall_s, p.scale, p.latencies_s) for p in passes],
            bench.setups,
        )
        notes.insert(0, f"{len(passes)} passes x {cells_per_pass}/{SLICES} cells")
        return Outcome(attempted, failed, metrics, notes)

    deadline = clock() + seconds * UNTRACED_SHARE
    untraced: list[CorpusPass] = []
    gc_clock = GcClock()
    while more(untraced, deadline):
        with gc_clock:
            timed_pass(untraced)

    tracer = Tracer()
    deadline = clock() + seconds * TRACED_SHARE
    traced: list[CorpusPass] = []
    while more(traced, deadline) and not tracer.full:
        timed_pass(traced, tracer)
    if not untraced or not traced:
        return Outcome(attempted, failed, {}, ["no pass completed"])
    counts: dict[str, int] = {}
    for measured in traced:
        add_counts(counts, measured.counts)
    ops = len(traced) * cells_per_pass
    untraced_ops = len(untraced) * cells_per_pass
    traced_wall_ns = sum(p.wall_s for p in traced) * 1e9
    self_ns, spans = tracer.self_times()
    start_ns = tracer.per_op("cell.start")
    cell_ns = sum(
        sum(tracer.per_op(layer).values())
        for layer in ("cell.prepare", "cell.start", "session", "cell.finish")
    )
    metrics = session_layer_metrics(self_ns, spans, counts, ops)
    metrics.update(
        {
            "cell.start_ms_p50": median(start_ns.values()) / 1e6,
            "cell.run_ms_p50": median(tracer.per_op("session").values()) / 1e6,
            "cell.rounds_p50": median([r for p in traced for r in p.rounds]),
            "cell.alarm_share": sum(p.alarms for p in traced) / ops,
            "cell.start_share": sum(start_ns.values()) / cell_ns,
            "setup.corpus_ms": median(bench.matrix_s) * 1e3,
            "runtime.gc_ms_per_kop": gc_clock.ns / 1e6 / untraced_ops * 1e3,
            "runtime.gc_collections_per_kop": gc_clock.collections / untraced_ops * 1e3,
            "trace.overhead_frac": sum(p.wall_s for p in traced) / len(traced)
            / (sum(p.wall_s for p in untraced) / len(untraced))
            - 1.0,
            "trace.attributed_share": attributed_ns(self_ns) / traced_wall_ns,
        }
    )
    metrics["campaign.self_ms"] = self_ns["campaign"] / len(traced) / 1e6
    metrics["campaign.turns"] = median([p.execution.scheduler_turns for p in traced])
    shares = ", ".join(
        f"{layer} {self_ns[layer] / traced_wall_ns:.1%}"
        for layer in ("cell.prepare", "cell.start", "session", "apps", "kernel", "variations",
                      "monitor", "wrappers", "cell.finish", "campaign")
    )
    notes = [
        f"{len(untraced)} untraced and {len(traced)} traced passes x {cells_per_pass} cells; "
        f"{len(tracer)} spans",
        f"self time, share of traced wall time: {shares}",
    ]
    return Outcome(attempted, failed, metrics, notes, tracer)


def _measure_pool(procs: CorpusBench, outcome: Outcome, *, seconds: float, smoke: bool) -> None:
    """Add the process-pool metrics, and its graded cells, to a traced run."""
    procs.run_pass()  # warm-up, not measured
    deadline = time.perf_counter() + seconds * (1 - UNTRACED_SHARE - TRACED_SHARE)
    passes: list[CorpusPass] = []
    while not passes or (not smoke and time.perf_counter() < deadline):
        outcome.attempted += len(procs.records)
        try:
            measured = procs.run_pass()
        except WorkerError as error:
            outcome.notes.append(f"worker error, pass abandoned: {error}")
            outcome.failed += len(procs.records)
            return
        outcome.failed += _failures(procs.records, measured.outcomes)
        if passes:
            measured.outcomes = None  # graded; the first pass's stay for message sizes
        passes.append(measured)
    cells = len(passes) * len(procs.records)
    wall = sum(p.wall_s for p in passes)
    busy = sum(p.busy_s for p in passes)
    payload_bytes, result_bytes = procs.message_bytes(passes[0])
    outcome.metrics.update(
        {
            "procpool.worker_busy_share": busy / (WORKERS * wall),
            "procpool.overhead_ms_per_cell": (WORKERS * wall - busy) / cells * 1e3,
            "procpool.payload_bytes_per_cell": payload_bytes,
            "procpool.result_bytes_per_cell": result_bytes,
            "procpool.start_ms": median(procs.pool_start_s) * 1e3,
        }
    )
    outcome.notes.append(
        f"{len(passes)} process-backend passes on {WORKERS} workers: "
        f"{cells / wall!r} cells/s (reported, not gated)"
    )
