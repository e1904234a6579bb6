"""WebBench-style workload generation and measurement.

The paper measures Table 3 with WebBench 5.0: client engines issue a mix of
static page requests against the server and report throughput (KB/s) and
latency (ms).  This module reproduces the workload side: a deterministic
static-page request mix, drivers that push the workload through a server
configuration (single process or N-variant), and a measurement record that
captures everything the virtual-time performance model needs to turn the run
into throughput and latency figures.

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
from typing import Optional, Sequence

from repro.api.builders import build_engine, build_session
from repro.api.spec import FleetSpec, SystemSpec
from repro.apps.httpd.http import format_request, split_responses
from repro.apps.httpd.server import MiniHttpd, make_httpd_factory
from repro.core.nvariant import NVariantResult, UIDCodec
from repro.engine import CampaignExecutionResult, MultiSessionEngine, NVariantSession
from repro.kernel.host import DOCROOT, HTTP_PORT, build_standard_host
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.libc import Libc
from repro.kernel.scheduler import ProgramRunner


@dataclasses.dataclass(frozen=True)
class RequestMixEntry:
    """One document in the request mix with its relative weight."""

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
class WebBenchWorkload:
    """A deterministic request sequence in the WebBench style.

    ``requests_per_connection`` models keep-alive clients: with the default
    of 1 every request travels on its own connection (the original WebBench
    behaviour); larger values pipeline that many requests per connection, so
    ``drive_*`` callers can pair the workload with a multiplexing server.
    """

    total_requests: int = 50
    mix: Sequence[RequestMixEntry] = DEFAULT_STATIC_MIX
    client_engines: int = 1
    client_machines: int = 1
    requests_per_connection: int = 1
    extra_headers: dict[str, str] = dataclasses.field(default_factory=dict)

    def request_paths(self) -> list[str]:
        """Expand the weighted mix into the ordered request path sequence."""
        cycle = []
        for entry in self.mix:
            cycle.extend([entry.path] * entry.weight)
        if not cycle:
            raise ValueError("request mix must not be empty")
        paths = list(itertools.islice(itertools.cycle(cycle), self.total_requests))
        return paths

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

    def split(self, shards: int) -> list["WebBenchWorkload"]:
        """Divide the workload across *shards* independent server replicas.

        The request total is dealt out as evenly as possible (earlier shards
        receive the remainder); every other parameter is inherited.
        """
        if shards < 1:
            raise ValueError("shards must be at least 1")
        base, remainder = divmod(self.total_requests, shards)
        return [
            dataclasses.replace(self, total_requests=base + (1 if i < remainder else 0))
            for i in range(shards)
        ]

    @property
    def concurrent_clients(self) -> int:
        """Total simultaneous client engines (engines x machines)."""
        return self.client_engines * self.client_machines


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


def _collect_responses(kernel: SimulatedKernel) -> tuple[int, dict[int, int], int]:
    """Parse every connection's responses; returns (completed, statuses, bytes).

    Keep-alive connections carry one Content-Length-framed response per
    pipelined request, so responses are counted individually rather than per
    connection.
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


def drive_standalone(
    workload: WebBenchWorkload,
    *,
    transformed: bool = False,
    multiplex: int = 1,
    kernel: Optional[SimulatedKernel] = None,
    configuration: str = "standalone",
) -> WorkloadMeasurement:
    """Run the workload against a single (non-redundant) server process.

    ``transformed=False`` reproduces Configuration 1 of Table 3 (unmodified
    Apache on the N-variant-capable kernel); ``transformed=True`` reproduces
    Configuration 2 (the UID-transformed server running as a single process).
    """
    kernel = kernel if kernel is not None else build_standard_host()
    for payload in workload.connection_payloads():
        kernel.client_connect(HTTP_PORT, payload)

    process = kernel.spawn_process("httpd")
    server = MiniHttpd(
        Libc(),
        UIDCodec.identity(),
        process.address_space,
        transformed=transformed,
        max_requests=workload.total_requests,
        multiplex=multiplex,
    )
    runner = ProgramRunner(kernel)
    run_result = runner.run(process, server.run())

    completed, statuses, body_bytes = _collect_responses(kernel)
    detection_calls = sum(
        kernel.stats.syscall_breakdown.get(name, 0)
        for name in ("uid_value", "cond_chk", "cc_eq", "cc_neq", "cc_lt", "cc_leq", "cc_gt", "cc_geq")
    )
    return WorkloadMeasurement(
        configuration=configuration,
        num_variants=1,
        requests_sent=workload.total_requests,
        requests_completed=completed,
        status_counts=statuses,
        response_bytes=body_bytes,
        syscalls_total=kernel.stats.syscall_count,
        syscalls_per_variant=[process.stats.syscall_count],
        bytes_read=kernel.stats.bytes_read,
        bytes_written=kernel.stats.bytes_written,
        replicated_calls=0,
        per_variant_calls=kernel.stats.syscall_count,
        monitor_checks=0,
        detection_calls=detection_calls,
        alarms=0 if run_result.exited_normally else 1,
        concurrent_clients=workload.concurrent_clients,
    )


def _prepare_nvariant_session(
    workload: WebBenchWorkload,
    spec: SystemSpec,
    *,
    multiplex: int = 1,
    kernel: Optional[SimulatedKernel] = None,
    name: str = "httpd",
) -> tuple[SimulatedKernel, NVariantSession]:
    """Load the workload onto a (fresh) host and build the server session."""
    kernel = kernel if kernel is not None else build_standard_host()
    for payload in workload.connection_payloads():
        kernel.client_connect(HTTP_PORT, payload)
    factory = make_httpd_factory(
        transformed=spec.transformed,
        max_requests=workload.total_requests,
        multiplex=multiplex,
    )
    return kernel, build_session(spec, kernel, factory, name=name)


def _nvariant_measurement(
    kernel: SimulatedKernel,
    workload: WebBenchWorkload,
    spec: SystemSpec,
    result: NVariantResult,
) -> WorkloadMeasurement:
    """Assemble the measurement record for one finished N-variant run."""
    completed, statuses, body_bytes = _collect_responses(kernel)
    detection_calls = sum(
        kernel.stats.syscall_breakdown.get(name, 0)
        for name in ("uid_value", "cond_chk", "cc_eq", "cc_neq", "cc_lt", "cc_leq", "cc_gt", "cc_geq")
    )
    return WorkloadMeasurement(
        configuration=spec.name,
        num_variants=spec.num_variants,
        requests_sent=workload.total_requests,
        requests_completed=completed,
        status_counts=statuses,
        response_bytes=body_bytes,
        syscalls_total=sum(v.syscall_count for v in result.variants),
        syscalls_per_variant=[v.syscall_count for v in result.variants],
        bytes_read=kernel.stats.bytes_read,
        bytes_written=kernel.stats.bytes_written,
        replicated_calls=result.wrapper_stats.replicated_calls,
        per_variant_calls=result.wrapper_stats.per_variant_calls,
        monitor_checks=result.monitor.stats.syscalls_compared,
        detection_calls=detection_calls,
        alarms=len(result.alarms),
        concurrent_clients=workload.concurrent_clients,
    )


def drive_nvariant(
    workload: WebBenchWorkload,
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
    kernel, session = _prepare_nvariant_session(
        workload, spec, multiplex=multiplex, kernel=kernel
    )
    result = session.run()
    return _nvariant_measurement(kernel, workload, spec, result), result


def drive_nvariant_many(
    jobs: Sequence[tuple[WebBenchWorkload, SystemSpec]],
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
    kernels: list[SimulatedKernel] = []
    sessions: list[NVariantSession] = []
    for index, (workload, spec) in enumerate(jobs):
        kernel, session = _prepare_nvariant_session(
            workload, spec, multiplex=multiplex, name=f"many-{index}-{spec.name}"
        )
        kernels.append(kernel)
        sessions.append(session)
    results = MultiSessionEngine(sessions, name="nvariant-many").run().values()
    return [
        (_nvariant_measurement(kernel, workload, spec, result), result)
        for (workload, spec), kernel, result in zip(jobs, kernels, results)
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
    fleet: FleetSpec, *, workload: Optional[WebBenchWorkload] = None
) -> EngineWorkloadMeasurement:
    """Drive the fleet a :class:`~repro.api.spec.FleetSpec` describes.

    The fleet's workload shape is expanded into a WebBench workload and split
    over ``fleet.num_sessions`` concurrent N-variant replicas, each running
    the full mini-httpd on its own simulated host (a sharded fleet behind a
    load balancer) with lockstep rounds interleaved by the cooperative
    scheduler.  Sessions are built fresh from ``fleet.system`` per shard, so
    no per-host state is shared.  Pass *workload* to override the expanded
    request sequence (e.g. a custom mix) while keeping the fleet shape.
    """
    if workload is None:
        workload = WebBenchWorkload(**fleet.workload.to_dict())
    shards = workload.split(fleet.num_sessions)
    kernels: list[SimulatedKernel] = []
    sessions: list[NVariantSession] = []
    for index, shard in enumerate(shards):
        kernel = build_standard_host()
        for payload in shard.connection_payloads():
            kernel.client_connect(HTTP_PORT, payload)
        kernels.append(kernel)
        factory = make_httpd_factory(
            transformed=fleet.system.transformed,
            max_requests=shard.total_requests,
            multiplex=fleet.multiplex,
        )
        sessions.append(
            build_session(fleet.system, kernel, factory, name=f"{fleet.name}-s{index}")
        )

    engine = build_engine(fleet, sessions)
    engine_result = engine.run()

    completed = 0
    statuses: dict[int, int] = {}
    for kernel in kernels:
        shard_completed, shard_statuses, _ = _collect_responses(kernel)
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
