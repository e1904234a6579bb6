"""Client workloads and the drivers that serve them, for every catalog app.

The paper measures Table 3 with WebBench 5.0: client engines issue a mix of
static page requests against the server and report throughput (KB/s) and
latency (ms).  This module reproduces the workload side: a deterministic
weighted request mix, drivers that push the workload through a server
configuration (single process or N-variant), and a measurement record that
captures everything the virtual-time performance model needs to turn the run
into throughput and latency figures.

A workload names its catalog app (:mod:`repro.apps.catalog`) and keeps only
what is truly app-specific: how its requests render onto the wire and how
the client-side bytes parse back into completed requests.
:class:`WebBenchWorkload` here is the httpd's;
:class:`~repro.apps.clients.ftpbench.FtpBenchWorkload` is the ftpd's.  The
drivers are written once and serve both: every session is built by
:func:`~repro.load.checkpoint.build_serving_session`, and every run is
measured into one :class:`WorkloadMeasurement`.

Because the simulation is single-threaded, "client engines" do not run
concurrently; instead their count parameterises the performance model's
saturation calculation (Little's law over the measured per-request service
demand), which is where the unsaturated/saturated distinction of Table 3 is
made.  True concurrency enters through :func:`drive_engine`, which shards the
workload over many N-variant server sessions interleaved by the cooperative
multi-session engine, and through keep-alive pipelining
(``requests_per_connection``) paired with the server's connection
multiplexing.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import ClassVar, Optional, Sequence

from repro.api.builders import build_engine
from repro.api.spec import FleetSpec, SystemSpec
from repro.apps.catalog import get_app
from repro.apps.httpd.http import format_request, split_responses
from repro.apps.httpd.server import MiniHttpd
from repro.core.nvariant import NVariantResult, UIDCodec
from repro.engine import CampaignExecutionResult, MultiSessionEngine, NVariantSession
from repro.kernel.host import build_standard_host
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.libc import Libc
from repro.kernel.scheduler import ProgramRunner
from repro.kernel.syscalls import DETECTION_SYSCALLS
from repro.load.checkpoint import build_serving_session


@dataclasses.dataclass(frozen=True)
class RequestMixEntry:
    """One document (or file) in a request mix with its relative weight."""

    path: str
    weight: int = 1


#: The default static mix: URL paths relative to the document root, weighted
#: towards the small pages as WebBench's static workload is.
DEFAULT_STATIC_MIX: tuple[RequestMixEntry, ...] = (
    RequestMixEntry("/index.html", 6),
    RequestMixEntry("/news.html", 4),
    RequestMixEntry("/products.html", 3),
    RequestMixEntry("/catalog.html", 2),
    RequestMixEntry("/images/logo.gif", 3),
    RequestMixEntry("/images/banner.jpg", 2),
    RequestMixEntry("/docs/faq.html", 2),
    RequestMixEntry("/docs/manual.html", 1),
    RequestMixEntry("/cgi-data/report.html", 1),
    RequestMixEntry("/downloads/archive.bin", 1),
)


@dataclasses.dataclass
class ClientWorkload:
    """A deterministic request sequence against one catalog app.

    Subclasses set :attr:`app` and implement the two app-specific halves:
    :meth:`connection_payloads` (one byte blob per client conversation) and
    :meth:`collect` (parse what the clients received).
    """

    #: The catalog name of the app this workload drives.
    app: ClassVar[str]

    total_requests: int = 50
    mix: Sequence[RequestMixEntry] = ()
    client_engines: int = 1
    client_machines: int = 1

    def request_paths(self) -> list[str]:
        """Expand the weighted mix into the ordered request path sequence."""
        cycle = [entry.path for entry in self.mix for _ in range(entry.weight)]
        if not cycle:
            raise ValueError("request mix must not be empty")
        return list(itertools.islice(itertools.cycle(cycle), self.total_requests))

    def connection_payloads(self) -> list[bytes]:
        """The wire bytes of each client conversation, in connection order."""
        raise NotImplementedError

    def collect(self, kernel: SimulatedKernel) -> tuple[int, dict[int, int], int]:
        """Parse the client-side view; returns (completed, statuses, body bytes)."""
        raise NotImplementedError

    def split(self, shards: int) -> list["ClientWorkload"]:
        """Divide the workload across *shards* independent server replicas.

        The request total is dealt out as evenly as possible (earlier shards
        receive the remainder); every other parameter is inherited.  Every
        shard must get at least one request: an idle replica still runs its
        server, which would inflate a fleet's sequential reference.
        """
        if not 1 <= shards <= self.total_requests:
            raise ValueError(
                f"shards must be between 1 and total_requests ({self.total_requests}), "
                f"got {shards}"
            )
        base, remainder = divmod(self.total_requests, shards)
        return [
            dataclasses.replace(self, total_requests=base + (1 if i < remainder else 0))
            for i in range(shards)
        ]

    @property
    def concurrent_clients(self) -> int:
        """Total simultaneous client engines (engines x machines)."""
        return self.client_engines * self.client_machines


@dataclasses.dataclass
class WebBenchWorkload(ClientWorkload):
    """A deterministic HTTP request sequence in the WebBench style.

    ``requests_per_connection`` models keep-alive clients: with the default
    of 1 every request travels on its own connection (the original WebBench
    behaviour); larger values pipeline that many requests per connection, so
    ``drive_*`` callers can pair the workload with a multiplexing server.
    """

    app: ClassVar[str] = "httpd"

    mix: Sequence[RequestMixEntry] = DEFAULT_STATIC_MIX
    requests_per_connection: int = 1
    extra_headers: dict[str, str] = dataclasses.field(default_factory=dict)

    def request_bytes(self) -> list[bytes]:
        """The raw request payloads, in order."""
        return [
            format_request(path, headers=self.extra_headers) for path in self.request_paths()
        ]

    def connection_payloads(self) -> list[bytes]:
        """Request bytes grouped into per-connection keep-alive pipelines."""
        if self.requests_per_connection < 1:
            raise ValueError("requests_per_connection must be at least 1")
        payloads = self.request_bytes()
        size = self.requests_per_connection
        return [b"".join(payloads[i : i + size]) for i in range(0, len(payloads), size)]

    def collect(self, kernel: SimulatedKernel) -> tuple[int, dict[int, int], int]:
        """Count every response on every connection.

        Keep-alive connections carry one Content-Length-framed response per
        pipelined request, so responses are counted individually rather than
        per connection.
        """
        completed = 0
        statuses: dict[int, int] = {}
        body_bytes = 0
        for connection in kernel.network.connections:
            raw = connection.response_bytes()
            if not raw:
                continue
            for status, _, body in split_responses(raw):
                completed += 1
                statuses[status] = statuses.get(status, 0) + 1
                body_bytes += len(body)
        return completed, statuses, body_bytes


#: The paper's unsaturated load: a single client machine running one engine.
UNSATURATED_WORKLOAD = WebBenchWorkload(total_requests=60, client_engines=1, client_machines=1)

#: The paper's saturated load: 3 client machines x 5 engines each.
SATURATED_WORKLOAD = WebBenchWorkload(total_requests=120, client_engines=5, client_machines=3)


@dataclasses.dataclass
class WorkloadMeasurement:
    """Everything measured from one workload run, independent of wall clock.

    The virtual-time performance model (:mod:`repro.analysis.perfmodel`)
    converts these counts into throughput and latency under a given load.
    """

    configuration: str
    num_variants: int
    requests_sent: int
    requests_completed: int
    status_counts: dict[int, int]
    response_bytes: int
    syscalls_total: int
    syscalls_per_variant: list[int]
    bytes_read: int
    bytes_written: int
    replicated_calls: int
    per_variant_calls: int
    monitor_checks: int
    detection_calls: int
    alarms: int
    concurrent_clients: int

    @property
    def completed_ok(self) -> bool:
        """True when every request produced a response and no alarm fired."""
        return self.requests_completed == self.requests_sent and self.alarms == 0

    def per_request_syscalls(self) -> float:
        """Average system calls (summed over variants) per completed request.

        With no completed requests there is no average to take, so the result
        is ``nan`` (not measured) rather than ``0.0`` (measured: zero calls
        per request) -- the two mean different things to every consumer that
        compares or thresholds this figure.
        """
        if not self.requests_completed:
            return float("nan")
        return self.syscalls_total / self.requests_completed


def _measure(
    workload: ClientWorkload,
    kernel: SimulatedKernel,
    configuration: str,
    *,
    syscalls_per_variant: list[int],
    syscalls_total: int,
    per_variant_calls: int,
    alarms: int,
    replicated_calls: int = 0,
    monitor_checks: int = 0,
) -> WorkloadMeasurement:
    """Assemble the measurement record of one finished run on *kernel*."""
    completed, statuses, body_bytes = workload.collect(kernel)
    breakdown = kernel.stats.syscall_breakdown
    return WorkloadMeasurement(
        configuration=configuration,
        num_variants=len(syscalls_per_variant),
        requests_sent=workload.total_requests,
        requests_completed=completed,
        status_counts=statuses,
        response_bytes=body_bytes,
        syscalls_total=syscalls_total,
        syscalls_per_variant=syscalls_per_variant,
        bytes_read=kernel.stats.bytes_read,
        bytes_written=kernel.stats.bytes_written,
        replicated_calls=replicated_calls,
        per_variant_calls=per_variant_calls,
        monitor_checks=monitor_checks,
        detection_calls=sum(breakdown.get(call.value, 0) for call in DETECTION_SYSCALLS),
        alarms=alarms,
        concurrent_clients=workload.concurrent_clients,
    )


def _load(workload: ClientWorkload, kernel: Optional[SimulatedKernel]) -> SimulatedKernel:
    """Queue every conversation of *workload* on *kernel* (default: a fresh app host)."""
    app = get_app(workload.app)
    if kernel is None:
        kernel = build_standard_host()
        app.prepare_host(kernel)
    for index, payload in enumerate(workload.connection_payloads()):
        app.connect(kernel, payload, client=f"client-{index}")
    return kernel


def serve_standalone(
    workload: ClientWorkload,
    server: type,
    runner: type,
    *,
    transformed: bool,
    multiplex: int,
    kernel: Optional[SimulatedKernel],
    configuration: str,
) -> WorkloadMeasurement:
    """Run *workload* against one unmonitored *server* process under *runner*.

    The per-app ``drive_standalone`` functions pass their server class and
    the ``ProgramRunner`` their module binds.
    """
    kernel = _load(workload, kernel)
    process = kernel.spawn_process(workload.app)
    program = server(
        Libc(),
        UIDCodec.identity(),
        process.address_space,
        transformed=transformed,
        max_requests=workload.total_requests,
        multiplex=multiplex,
    )
    run_result = runner(kernel).run(process, program.run())
    return _measure(
        workload,
        kernel,
        configuration,
        syscalls_per_variant=[process.stats.syscall_count],
        syscalls_total=kernel.stats.syscall_count,
        per_variant_calls=kernel.stats.syscall_count,
        alarms=0 if run_result.exited_normally else 1,
    )


def drive_standalone(
    workload: WebBenchWorkload,
    *,
    transformed: bool = False,
    multiplex: int = 1,
    kernel: Optional[SimulatedKernel] = None,
    configuration: str = "standalone",
) -> WorkloadMeasurement:
    """Run the workload against a single (non-redundant) httpd process.

    ``transformed=False`` reproduces Configuration 1 of Table 3 (unmodified
    Apache on the N-variant-capable kernel); ``transformed=True`` reproduces
    Configuration 2 (the UID-transformed server running as a single process).
    """
    return serve_standalone(
        workload,
        MiniHttpd,
        ProgramRunner,
        transformed=transformed,
        multiplex=multiplex,
        kernel=kernel,
        configuration=configuration,
    )


def _session(
    workload: ClientWorkload,
    spec: SystemSpec,
    *,
    multiplex: int,
    kernel: Optional[SimulatedKernel] = None,
    name: Optional[str] = None,
) -> NVariantSession:
    """Load the workload onto a (fresh) host and build the server session."""
    return build_serving_session(
        spec,
        workload.app,
        kernel=_load(workload, kernel),
        name=workload.app if name is None else name,
        max_requests=workload.total_requests,
        multiplex=multiplex,
    )


def _measure_session(
    workload: ClientWorkload, session: NVariantSession, result: NVariantResult
) -> tuple[WorkloadMeasurement, NVariantResult]:
    """Measure one finished serving session; labelled with its spec's name."""
    syscalls = [variant.syscall_count for variant in result.variants]
    measurement = _measure(
        workload,
        session.kernel,
        session.spec.name,
        syscalls_per_variant=syscalls,
        syscalls_total=sum(syscalls),
        per_variant_calls=result.wrapper_stats.per_variant_calls,
        alarms=len(result.alarms),
        replicated_calls=result.wrapper_stats.replicated_calls,
        monitor_checks=result.monitor.stats.syscalls_compared,
    )
    return measurement, result


def drive_nvariant(
    workload: ClientWorkload,
    spec: SystemSpec,
    *,
    multiplex: int = 1,
    kernel: Optional[SimulatedKernel] = None,
) -> tuple[WorkloadMeasurement, NVariantResult]:
    """Run the workload against a declaratively specified N-variant server.

    ``ADDRESS_PARTITIONING_SPEC`` reproduces Configuration 3 of Table 3;
    ``ADDRESS_UID_SPEC`` reproduces Configuration 4.  The spec's ``name`` is
    the measurement's configuration label.
    """
    session = _session(workload, spec, multiplex=multiplex, kernel=kernel)
    return _measure_session(workload, session, session.run())


def drive_nvariant_many(
    jobs: Sequence[tuple[ClientWorkload, SystemSpec]],
    *,
    multiplex: int = 1,
) -> list[tuple[WorkloadMeasurement, NVariantResult]]:
    """Run several (workload, spec) pairs concurrently on one engine.

    Each job gets its own simulated host, so the interleaving cannot change
    any job's measurement relative to :func:`drive_nvariant` -- the engine's
    interleaving-determinism guarantee.  The experiment drivers (Table 3,
    the ablations) use this to sweep their configurations through the engine
    in one pass instead of looping serially.
    """
    sessions = [
        _session(workload, spec, multiplex=multiplex, name=f"many-{index}-{spec.name}")
        for index, (workload, spec) in enumerate(jobs)
    ]
    results = MultiSessionEngine(sessions, name="nvariant-many").run().values()
    return [
        _measure_session(workload, session, result)
        for (workload, _), session, result in zip(jobs, sessions, results)
    ]


# ---------------------------------------------------------------------------
# Concurrent multi-session driving (the engine path)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EngineWorkloadMeasurement:
    """Aggregate measurement of one concurrent multi-session run.

    Sessions model independent N-variant server replicas progressing in
    parallel, so the engine's elapsed virtual time is the maximum over the
    sessions' kernel-clock consumption while the sequential reference is
    their sum -- the ratio between the two is the engine's concurrency win.
    """

    configuration: str
    num_sessions: int
    requests_sent: int
    requests_completed: int
    status_counts: dict[int, int]
    alarms: int
    virtual_elapsed: int
    virtual_elapsed_sequential: int
    engine_result: CampaignExecutionResult

    @property
    def completed_ok(self) -> bool:
        """True when every request produced a response and no alarm fired."""
        return self.requests_completed == self.requests_sent and self.alarms == 0

    def requests_per_kilotick(self) -> float:
        """Aggregate throughput in requests per 1000 virtual clock ticks.

        ``nan`` when no virtual time elapsed: an empty run measured nothing,
        which is different from measuring a throughput of zero.
        """
        if not self.virtual_elapsed:
            return float("nan")
        return self.requests_completed * 1000.0 / self.virtual_elapsed

    def sequential_requests_per_kilotick(self) -> float:
        """What the same workload sustains run back-to-back on one replica.

        ``nan`` when the sequential reference elapsed no virtual time (see
        :meth:`requests_per_kilotick`).
        """
        if not self.virtual_elapsed_sequential:
            return float("nan")
        return self.requests_completed * 1000.0 / self.virtual_elapsed_sequential

    def speedup(self) -> float:
        """Concurrent over sequential aggregate throughput.

        ``nan`` when either side is unmeasured -- propagating the sentinel is
        what lets consumers distinguish "no measurement" from a genuine 0.0x.
        """
        sequential = self.sequential_requests_per_kilotick()
        concurrent = self.requests_per_kilotick()
        if sequential != sequential or concurrent != concurrent or not sequential:
            return float("nan")
        return concurrent / sequential


def drive_engine(
    fleet: FleetSpec, *, workload: Optional[ClientWorkload] = None
) -> EngineWorkloadMeasurement:
    """Drive the fleet a :class:`~repro.api.spec.FleetSpec` describes.

    The fleet's workload shape is expanded into a WebBench workload and split
    over ``fleet.num_sessions`` concurrent N-variant replicas, each running
    the full server on its own simulated host (a sharded fleet behind a
    load balancer) with lockstep rounds interleaved by the cooperative
    scheduler.  Sessions are built fresh from ``fleet.system`` per shard, so
    no per-host state is shared.  Pass *workload* to override the expanded
    request sequence (a custom mix, or another app's workload) while keeping
    the fleet shape.
    """
    if workload is None:
        workload = WebBenchWorkload(**fleet.workload.to_dict())
    sessions = [
        _session(shard, fleet.system, multiplex=fleet.multiplex, name=f"{fleet.name}-s{index}")
        for index, shard in enumerate(workload.split(fleet.num_sessions))
    ]
    engine_result = build_engine(fleet, sessions).run()

    completed = 0
    statuses: dict[int, int] = {}
    for session in sessions:
        shard_completed, shard_statuses, _ = workload.collect(session.kernel)
        completed += shard_completed
        for status, count in shard_statuses.items():
            statuses[status] = statuses.get(status, 0) + count

    return EngineWorkloadMeasurement(
        configuration=fleet.name,
        num_sessions=fleet.num_sessions,
        requests_sent=workload.total_requests,
        requests_completed=completed,
        status_counts=statuses,
        alarms=engine_result.total_alarms,
        virtual_elapsed=engine_result.virtual_elapsed,
        virtual_elapsed_sequential=engine_result.virtual_elapsed_sequential,
        engine_result=engine_result,
    )
