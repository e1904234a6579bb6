"""Serving workloads: one protected server under a closed-loop client.

One client per server sends its next request when the previous response is
complete (WebBench's unsaturated run).  The mini servers exit when their
accept queue drains, so a pass queues the whole request sequence up front;
the server is single-threaded and serves in FIFO order, so a request's
latency is its completion time minus the previous request's completion
time.  A request completes when the server accepts the next connection (the
last one when the session ends), which the benchmark observes after each
lockstep round from the listener's pending queue.

Every pass is checked: each response must be byte-identical to the
standalone server's response to the same request, and no alarm may fire.

The Table 3 ratio ``nvariant.overhead_x`` compares the serving loops alone:
the protected engine run against the standalone ``ProgramRunner.run``, both
over the same queued sequence, neither including host or session set-up or
response collection.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import time
from types import ModuleType
from typing import Callable, Optional

from repro.analysis.experiments.apps import diversity_spec
from repro.api.spec import ADDRESS_UID_SPEC, SystemSpec
from repro.apps.catalog import get_app
from repro.apps.clients import ftpbench, webbench
from repro.engine import MultiSessionEngine
from repro.kernel.host import build_standard_host
from repro.load.checkpoint import build_serving_session

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

#: Requests per pass: whole cycles of both mixes (weights 25 and 16), about
#: 0.4 s of httpd-addr-uid serving on one core.
REQUESTS_PER_PASS = 400
#: A run serves at least this many requests, so ten lie beyond p99.
MIN_REQUESTS = 1000
#: Share of a traced run spent on untraced passes (the rest is traced).
UNTRACED_SHARE = 0.4


@dataclasses.dataclass(frozen=True)
class ServingWorkload:
    """A protected configuration, the app it runs and the client's mix."""

    app: str
    spec: SystemSpec
    mix: tuple
    #: The client module: its workload class, mix entry and drive_standalone.
    clients: ModuleType
    client: Callable  # builds the client workload from (total_requests, mix)
    entry: Callable  # builds one weight-1 mix entry from a path


SERVING_WORKLOADS = {
    # Table 3 configuration 4: 2-variant address+uid, WebBench static mix.
    "httpd-addr-uid": ServingWorkload(
        app="httpd",
        spec=ADDRESS_UID_SPEC,
        mix=webbench.DEFAULT_STATIC_MIX,
        clients=webbench,
        client=webbench.WebBenchWorkload,
        entry=webbench.RequestMixEntry,
    ),
    # The apps experiment's stacked fd+address+uid orbits at N=3, ftpd mix.
    "ftpd-fd3": ServingWorkload(
        app="ftpd",
        spec=diversity_spec(3),
        mix=ftpbench.DEFAULT_FTP_MIX,
        clients=ftpbench,
        client=ftpbench.FtpBenchWorkload,
        entry=ftpbench.FtpMixEntry,
    ),
}


@dataclasses.dataclass
class ServingPass:
    """What one protected pass over the request sequence measured."""

    host_s: float
    session_s: float
    setup_s: float
    run_s: float
    latencies_s: list[float]
    responses: list[tuple[bytes, ...]]
    alarms: int
    counts: dict[str, int]


def _responses(kernel, requests: int) -> list[tuple[bytes, ...]]:
    """Each request's client-side bytes, one tuple of connections per request."""
    connections = kernel.network.connections
    per_request = len(connections) // requests
    return [
        tuple(c.response_bytes() for c in connections[i * per_request : (i + 1) * per_request])
        for i in range(requests)
    ]


def _prepared_host(app):
    kernel = build_standard_host()
    app.prepare_host(kernel)
    return kernel


@contextlib.contextmanager
def _timed_program_runs(clients: ModuleType):
    """Time each ``ProgramRunner.run`` the client module makes while open.

    The client module looks ``ProgramRunner`` up when it drives a server, so
    a timing subclass stands in for it there, and only there, until exit.
    """
    base = clients.ProgramRunner
    seconds: list[float] = []

    class TimedRunner(base):
        def run(self, *args, **kwargs):
            started = time.perf_counter()
            try:
                return super().run(*args, **kwargs)
            finally:
                seconds.append(time.perf_counter() - started)

    clients.ProgramRunner = TimedRunner
    try:
        yield seconds
    finally:
        clients.ProgramRunner = base


class ServingBench:
    """One workload's seeded request sequence, its reference and its passes."""

    def __init__(self, name: str, seed: int, requests: int):
        self.workload = SERVING_WORKLOADS[name]
        self.app = get_app(self.workload.app)
        # The client's weighted cycle through the mix, shuffled by the seed:
        # a pass that is a whole number of cycles serves the mix in exact
        # proportion, so seeds differ in request order, not in composition.
        paths = self.workload.client(total_requests=requests, mix=self.workload.mix).request_paths()
        random.Random(seed).shuffle(paths)
        # Weight-1 entries in sequence order make the client replay exactly
        # this sequence, so the standalone reference sees the same bytes.
        self.client = self.workload.client(
            total_requests=requests, mix=tuple(self.workload.entry(p, 1) for p in paths)
        )
        self.requests = requests
        self.payloads = self.client.connection_payloads()
        self.expected = self.standalone_pass()[1]

    def standalone_pass(self) -> tuple[float, list[tuple[bytes, ...]]]:
        """The unprotected server over the same sequence.

        Returns the seconds its ``ProgramRunner.run`` took and the responses.
        """
        kernel = _prepared_host(self.app)
        with _timed_program_runs(self.workload.clients) as runs:
            self.workload.clients.drive_standalone(self.client, kernel=kernel)
        return sum(runs), _responses(kernel, self.requests)

    def protected_pass(
        self, tracer: Optional[Tracer] = None, first_op: int = 0, probe: bool = True
    ) -> ServingPass:
        """One protected pass; without *probe*, no request latencies are taken."""
        clock = time.perf_counter
        started = clock()
        kernel = _prepared_host(self.app)
        host_done = clock()
        for index, payload in enumerate(self.payloads):
            self.app.connect(kernel, payload, client=f"client-{index}")
        session_started = clock()
        session = build_serving_session(
            self.workload.spec, self.app, kernel=kernel, max_requests=self.requests
        )
        ready = clock()

        if tracer is not None:
            instrument_session(session, tracer)
            tracer.current_op = first_op
        listener = kernel.network.listeners[self.app.port]
        accepted: list[float] = []
        waiting = len(listener.pending)
        step = session.step

        def probed_step():
            nonlocal waiting
            state = step()
            pending = len(listener.pending)
            if pending != waiting:
                stamp = clock()
                accepted.extend([stamp] * (waiting - pending))
                waiting = pending
                if tracer is not None:
                    tracer.current_op = first_op + len(accepted) - 1
            return state

        # Traced, the probe is a span of its own, so neither the scheduler's
        # nor the session's self time includes the benchmark's own work.
        if tracer is not None:
            session.step = tracer.wrap("probe", probed_step)
        elif probe:
            session.step = probed_step
        engine = MultiSessionEngine([session], name="perfbench")
        run = engine.run if tracer is None else tracer.wrap("scheduler", engine.run)
        run_started = clock()
        result = run()
        finished = clock()
        completions = accepted[1:] + [finished]
        return ServingPass(
            host_s=host_done - started,
            session_s=ready - session_started,
            setup_s=ready - started,
            run_s=finished - run_started,
            latencies_s=[done - begun for begun, done in zip(accepted, completions)],
            responses=_responses(kernel, self.requests),
            alarms=result.total_alarms,
            counts=session_counts(session),
        )

    def failures(self, measured: ServingPass) -> int:
        """Requests answered wrongly or not at all; every one if an alarm fired."""
        if measured.alarms:
            return self.requests
        return sum(
            got != want or not any(got) for got, want in zip(measured.responses, self.expected)
        )


def run_serving(name: str, *, seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    """Run one serving workload; untraced for end-to-end, traced for layers."""
    requests = 12 if smoke else REQUESTS_PER_PASS
    bench = ServingBench(name, seed, requests)
    bench.protected_pass()  # warm-up, not measured
    attempted = failed = 0

    def timed_pass(
        tracer: Optional[Tracer] = None, first_op: int = 0, probe: bool = True
    ) -> ServingPass:
        nonlocal attempted, failed
        measured = bench.protected_pass(tracer, first_op, probe)
        attempted += bench.requests
        failed += bench.failures(measured)
        measured.responses = []  # checked; keeping them would grow memory and GC work
        return measured

    clock = time.perf_counter
    if not trace:
        deadline = clock() + seconds
        yardstick = Yardstick()
        passes: list[Timed] = []
        setups: list[Timed] = []
        while not passes or (
            not smoke and (clock() < deadline or len(passes) * requests < MIN_REQUESTS)
        ):
            measured = timed_pass()
            scale = yardstick.factor()
            passes.append(Timed(measured.run_s, scale, measured.latencies_s))
            setups.append(Timed(measured.setup_s, scale))
        metrics, notes = end_to_end(len(passes) * requests, passes, setups)
        notes.insert(0, f"{len(passes)} passes x {requests} requests")
        return Outcome(attempted, failed, metrics, notes)

    # Untraced share of the run: alternate protected and standalone passes
    # over the same sequence (the Table 3 ratio), timing garbage collection.
    # These protected passes run without the listener probe, so the ratio
    # and trace.overhead_frac compare against the bare engine run.
    deadline = clock() + seconds * UNTRACED_SHARE
    untraced: list[ServingPass] = []
    ratios: list[float] = []
    gc_clock = GcClock()
    while not untraced or (not smoke and clock() < deadline):
        with gc_clock:
            measured = timed_pass(probe=False)
        untraced.append(measured)
        standalone_s, _ = bench.standalone_pass()
        ratios.append(measured.run_s / standalone_s)

    # Traced share: every layer boundary recorded as a span.
    tracer = Tracer()
    deadline = clock() + seconds * (1 - UNTRACED_SHARE)
    traced: list[ServingPass] = []
    counts: dict[str, int] = {}
    while not traced or (not smoke and clock() < deadline and not tracer.full):
        measured = timed_pass(tracer, first_op=len(traced) * requests)
        traced.append(measured)
        add_counts(counts, measured.counts)
    ops = len(traced) * requests
    untraced_ops = len(untraced) * requests
    self_ns, spans = tracer.self_times()
    traced_wall_ns = sum(p.run_s for p in traced) * 1e9
    metrics = session_layer_metrics(self_ns, spans, counts, ops)
    metrics.update(
        {
            "scheduler.us_per_op": self_ns["scheduler"] / ops / 1e3,
            "setup.host_ms": median([p.host_s for p in untraced]) * 1e3,
            "setup.session_ms": median([p.session_s for p in untraced]) * 1e3,
            "runtime.gc_ms_per_kop": gc_clock.ns / 1e6 / untraced_ops * 1e3,
            "runtime.gc_collections_per_kop": gc_clock.collections / untraced_ops * 1e3,
            "nvariant.overhead_x": median(ratios),
            "trace.overhead_frac": sum(p.run_s for p in traced) / len(traced)
            / (sum(p.run_s for p in untraced) / len(untraced))
            - 1.0,
            "trace.attributed_share": attributed_ns(self_ns) / traced_wall_ns,
        }
    )
    shares = ", ".join(
        f"{layer} {self_ns[layer] / traced_wall_ns:.1%}"
        for layer in (
            "session", "apps", "kernel", "variations", "monitor", "wrappers", "scheduler", "probe"
        )
    )
    notes = [
        f"{len(untraced)} untraced and {len(traced)} traced passes x {requests} requests; "
        f"{len(tracer)} spans",
        f"self time, share of traced wall time: {shares}",
    ]
    return Outcome(attempted, failed, metrics, notes, tracer)
