"""Spans around the program's layer boundaries, recorded from outside.

The traced run wraps the calls a session makes into each layer -- instance
attributes only, so the program's classes and modules stay untouched -- and
records one span per call: layer, start, end, parent span and the request or
cell it served.  Spans stay in memory (flat arrays, about 40 bytes a span)
and are written out once, at the end of the run.  A layer's self time is the
sum of its spans' durations minus the durations of their child spans.
"""

from __future__ import annotations

import gc
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

import numpy as np

#: Layer names, indexed by the small integer a span stores.
LAYERS = (
    "scheduler",  # engine.scheduler: MultiSessionEngine.run
    "session",  # engine.session: NVariantSession.step
    "apps",  # each variant program's send
    "monitor",  # SyscallComparator.check_round / transform_round
    "variations",  # VariationStack canonicalize_request / transform_request / transform_result
    "wrappers",  # SyscallWrappers.execute_round
    "kernel",  # SimulatedKernel.execute
    "campaign",  # engine.campaign: run_jobs
    "cell.prepare",  # repro.corpus.runner.prepare_record
    "cell.start",  # PreparedAttack.start: host and session construction
    "cell.finish",  # PreparedAttack.finish
    "probe",  # the benchmark's own listener probe around each serving step
)
LAYER_ID = {name: index for index, name in enumerate(LAYERS)}
#: Layers whose self time is no program layer's own work: the engine run
#: and the campaign run keep whatever their named child layers do not
#: explain, and the probe is the benchmark observing itself.
UNATTRIBUTED = ("scheduler", "campaign", "probe")


def attributed_ns(self_ns: dict[str, int]) -> int:
    """Summed self time of the named program layers below the engine run."""
    return sum(ns for layer, ns in self_ns.items() if layer not in UNATTRIBUTED)


class Tracer:
    """An in-memory span recorder.

    :attr:`current_op` is the request or cell id stamped on every span
    opened while it is set; the workload code updates it as work moves from
    one request or cell to the next.  ``capacity`` bounds memory: no traced
    pass starts once :attr:`full` is true.
    """

    def __init__(self, capacity: int = 1_000_000):
        self.capacity = capacity
        self.layer = array("b")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current_op = -1
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    @property
    def full(self) -> bool:
        return len(self.start) >= self.capacity

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """Return *fn* recording one *layer* span per call."""
        layer_id = LAYER_ID[layer]
        layers, parents, ops, starts, ends = self.layer, self.parent, self.op, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """Numpy copies of the span arrays (copies, so recording can go on)."""
        columns = {
            "layer": self.layer,
            "parent": self.parent,
            "op": self.op,
            "start": self.start,
            "end": self.end,
        }
        return {
            name: np.frombuffer(values, dtype=np.int8 if name == "layer" else np.int64).copy()
            for name, values in columns.items()
        }

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """``(self nanoseconds, span count)`` per layer."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        children = np.zeros(len(duration), dtype=np.int64)
        has_parent = spans["parent"] >= 0
        np.add.at(children, spans["parent"][has_parent], duration[has_parent])
        own = duration - children
        per_layer = np.bincount(spans["layer"], weights=own, minlength=len(LAYERS))
        counts = np.bincount(spans["layer"], minlength=len(LAYERS))
        return (
            {name: int(per_layer[i]) for i, name in enumerate(LAYERS)},
            {name: int(counts[i]) for i, name in enumerate(LAYERS)},
        )

    def per_op(self, layer: str) -> dict[int, int]:
        """Total span duration of *layer* per op id (for per-cell medians)."""
        spans = self.arrays()
        mask = spans["layer"] == LAYER_ID[layer]
        totals: dict[int, int] = {}
        for op, start, end in zip(spans["op"][mask], spans["start"][mask], spans["end"][mask]):
            totals[int(op)] = totals.get(int(op), 0) + int(end - start)
        return totals

    def write_csv(self, path: Path) -> None:
        """Write every span as ``layer,op,parent,start_ns,end_ns`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("layer,op,parent,start_ns,end_ns\n")
            for layer, op, parent, start, end in zip(
                self.layer, self.op, self.parent, self.start, self.end
            ):
                out.write(f"{LAYERS[layer]},{op},{parent},{start},{end}\n")


class _ProgramProxy:
    """Stands in for a variant's program generator, timing each ``send``."""

    __slots__ = ("send", "close")

    def __init__(self, program, tracer: Tracer):
        self.send = tracer.wrap("apps", program.send)
        self.close = program.close


def instrument_session(session, tracer: Tracer, *, op: Optional[int] = None) -> None:
    """Wrap one fresh session's calls into each layer with spans.

    Must run before the session's first round.  With *op* given, every round
    of this session stamps its spans with that id (a corpus cell); without
    it, the caller keeps :attr:`Tracer.current_op` up to date (a server
    session that serves many requests).  The variant programs are only
    reachable through the session's runtime records, so this reads that one
    private attribute.
    """
    wrap = tracer.wrap
    variations = session.variations
    for method in ("canonicalize_request", "transform_request", "transform_result"):
        setattr(variations, method, wrap("variations", getattr(variations, method)))
    comparator = session.comparator
    comparator.check_round = wrap("monitor", comparator.check_round)
    comparator.transform_round = wrap("monitor", comparator.transform_round)
    session.wrappers.execute_round = wrap("wrappers", session.wrappers.execute_round)
    session.kernel.execute = wrap("kernel", session.kernel.execute)
    for runtime in session._runtimes:
        runtime.program = _ProgramProxy(runtime.program, tracer)
    step = wrap("session", session.step)
    if op is not None:

        def step_as_op():
            tracer.current_op = op
            return step()

        session.step = step_as_op
    else:
        session.step = step


def session_counts(session) -> dict[str, int]:
    """The deterministic per-session counters the per-layer metrics use."""
    monitor = session.monitor.stats
    wrappers = session.wrappers.stats
    return {
        "lockstep_points": monitor.lockstep_points,
        "fast_path_rounds": monitor.fast_path_rounds,
        "replicated_calls": wrappers.replicated_calls,
        "fanned_calls": wrappers.per_variant_calls + wrappers.denied_calls,
        "syscalls": session.kernel.stats.syscall_count,
    }


def add_counts(total: dict[str, int], counts: dict[str, int]) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


class GcClock:
    """Times every garbage collection through ``gc.callbacks`` while open."""

    def __init__(self) -> None:
        self.ns = 0
        self.collections = 0
        self._started = 0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
        else:
            self.ns += time.perf_counter_ns() - self._started
            self.collections += 1

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

