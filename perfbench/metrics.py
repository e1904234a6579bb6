"""The benchmark's metric names, units and the shared per-layer arithmetic.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json``; the benchmark's
test keeps the two in step.  An op is the unit of work of a workload: a
benign request on the serving workloads, one oracle-graded corpus cell on
the corpus workloads.  A per-layer metric whose layer a workload never runs
(the process pool on a serving workload, say) reads 0.

The gated times are adjusted to a reference host speed (see
``perfbench/yardstick.py``): each measured pass's wall times are multiplied
by the host-speed factor taken around it.  The per-layer times are wall
times.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Iterable, Optional

import numpy as np

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Latency percentiles printed with the end-to-end metrics but not gated:
#: across ten seeds on a 2-vCPU host their spread reached 0.3-0.7 of the
#: median (p99) and 0.4 (p50, which falls between request classes), while
#: p95 stayed near 0.1.
REPORTED_PERCENTILES = (50, 95, 99)
#: The gated p95 is the median over windows of consecutive passes holding at
#: least this many latencies (ten beyond the p95 of each window), so a short
#: slow phase of the host moves one window's p95, not the run's.
WINDOW_SAMPLES = 200

PER_LAYER = {
    "apps.us_per_op": "us",
    "variations.us_per_op": "us",
    "variations.calls_per_op": "count",
    "monitor.us_per_op": "us",
    "monitor.rounds_per_op": "count",
    "monitor.fast_path_share": "frac",
    "wrappers.us_per_op": "us",
    "wrappers.replicated_share": "frac",
    "kernel.us_per_op": "us",
    "kernel.syscalls_per_op": "count",
    "session.us_per_op": "us",
    "scheduler.us_per_op": "us",
    "campaign.self_ms": "ms",
    "campaign.turns": "count",
    "procpool.worker_busy_share": "frac",
    "procpool.overhead_ms_per_cell": "ms",
    "procpool.payload_bytes_per_cell": "bytes",
    "procpool.result_bytes_per_cell": "bytes",
    "procpool.start_ms": "ms",
    "cell.start_ms_p50": "ms",
    "cell.run_ms_p50": "ms",
    "cell.rounds_p50": "count",
    "cell.alarm_share": "frac",
    "cell.start_share": "frac",
    "setup.host_ms": "ms",
    "setup.session_ms": "ms",
    "setup.corpus_ms": "ms",
    "runtime.gc_ms_per_kop": "ms",
    "runtime.gc_collections_per_kop": "count",
    "nvariant.overhead_x": "x",
    "trace.overhead_frac": "frac",
    "trace.attributed_share": "frac",
}

#: For each per-layer metric, the end-to-end metric and workload it should
#: move when its layer gets faster or does less work.
SHOULD_MOVE = {
    "apps.us_per_op": "ops_per_s and latency_p95_ms on httpd-addr-uid and ftpd-fd3",
    "variations.us_per_op": "ops_per_s on ftpd-fd3; about zero on httpd-addr-uid",
    "variations.calls_per_op": "ops_per_s on ftpd-fd3; about zero on httpd-addr-uid",
    "monitor.us_per_op": "ops_per_s on httpd-addr-uid",
    "monitor.rounds_per_op": "ops_per_s on httpd-addr-uid",
    "monitor.fast_path_share": "ops_per_s on httpd-addr-uid",
    "wrappers.us_per_op": "ops_per_s on httpd-addr-uid and ftpd-fd3",
    "wrappers.replicated_share": "ops_per_s on httpd-addr-uid and ftpd-fd3",
    "kernel.us_per_op": "ops_per_s on httpd-addr-uid and ftpd-fd3",
    "kernel.syscalls_per_op": "ops_per_s on httpd-addr-uid and ftpd-fd3",
    "session.us_per_op": "latency_p95_ms on httpd-addr-uid and ftpd-fd3",
    "scheduler.us_per_op": "ops_per_s on httpd-addr-uid and ftpd-fd3",
    "campaign.self_ms": "ops_per_s on corpus-inproc",
    "campaign.turns": "ops_per_s on corpus-inproc",
    "procpool.worker_busy_share": "process-pool cells/s printed by corpus-inproc's traced run",
    "procpool.overhead_ms_per_cell": "process-pool cells/s printed by corpus-inproc's traced run",
    "procpool.payload_bytes_per_cell": "process-pool cells/s printed by corpus-inproc's traced run",
    "procpool.result_bytes_per_cell": "process-pool cells/s printed by corpus-inproc's traced run",
    "procpool.start_ms": "set-up of the process pool in corpus-inproc's traced run",
    "cell.start_ms_p50": "ops_per_s on corpus-inproc",
    "cell.run_ms_p50": "ops_per_s on corpus-inproc",
    "cell.rounds_p50": "ops_per_s on corpus-inproc",
    "cell.alarm_share": "ops_per_s on corpus-inproc",
    "cell.start_share": "ops_per_s on corpus-inproc",
    "setup.host_ms": "setup_s on httpd-addr-uid and ftpd-fd3",
    "setup.session_ms": "setup_s on httpd-addr-uid and ftpd-fd3",
    "setup.corpus_ms": "setup_s on corpus-inproc",
    "runtime.gc_ms_per_kop": "latency_p95_ms on every workload",
    "runtime.gc_collections_per_kop": "latency_p95_ms on every workload",
    "nvariant.overhead_x": "none: falls with monitor-side layers, rises with apps or kernel",
    "trace.overhead_frac": "none: the cost of tracing itself",
    "trace.attributed_share": "none: share of traced wall time in program layers below the engine run",
}

#: Per-layer counts that must repeat exactly for a seed (no clock involved).
EXACT_COUNTS = (
    "monitor.rounds_per_op",
    "monitor.fast_path_share",
    "kernel.syscalls_per_op",
    "variations.calls_per_op",
    "wrappers.replicated_share",
    "cell.rounds_p50",
    "cell.alarm_share",
)


@dataclasses.dataclass
class Outcome:
    """A finished run: the correctness tallies, the metrics and readable notes."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str]
    #: The traced run's spans (a ``perfbench.trace.Tracer``), written out last.
    tracer: Optional[object] = None


def median(values: Iterable[float]) -> float:
    return statistics.median(values)


def percentile(values: Iterable[float], q: float) -> float:
    """The *q*-th percentile (0..100), linearly interpolated; nan if empty."""
    data = np.asarray(list(values), dtype=np.float64)
    return float(np.percentile(data, q)) if data.size else float("nan")


@dataclasses.dataclass
class Timed:
    """Wall seconds of one measured piece of work and its host-speed factor."""

    seconds: float
    scale: float
    latencies_s: tuple[float, ...] = ()


def end_to_end(
    ops: int, passes: list[Timed], setups: list[Timed]
) -> tuple[dict[str, float], list[str]]:
    """A run's gated end-to-end metrics, and notes with the raw wall times.

    Throughput is every op completed over the summed measured time, which
    averages the host's fast and slow phases rather than picking one.  Each
    pass's time and latencies, and each set-up, are scaled by the factor
    measured around it.  The notes give the percentiles of all latencies.
    """
    windows: list[list[Timed]] = [[]]
    samples = 0
    for p in passes:
        if samples >= WINDOW_SAMPLES:
            windows.append([])
            samples = 0
        windows[-1].append(p)
        samples += len(p.latencies_s)
    if len(windows) > 1 and samples < WINDOW_SAMPLES:
        windows[-2].extend(windows.pop())  # a short tail joins the window before

    def windowed_p95_ms(adjusted: bool) -> float:
        return 1e3 * median(
            percentile([t * (p.scale if adjusted else 1.0) for p in w for t in p.latencies_s], 95)
            for w in windows
        )

    latencies = [latency * p.scale for p in passes for latency in p.latencies_s]
    metrics = {
        "ops_per_s": ops / sum(p.seconds * p.scale for p in passes),
        "latency_p95_ms": windowed_p95_ms(adjusted=True),
        "setup_s": median(s.seconds * s.scale for s in setups),
    }
    notes = [
        f"latency over {len(latencies)} samples in {len(windows)} windows: "
        + ", ".join(f"p{q} {percentile(latencies, q) * 1e3!r} ms" for q in REPORTED_PERCENTILES),
        f"wall clock: {ops / sum(p.seconds for p in passes)!r} ops/s, "
        f"p95 {windowed_p95_ms(adjusted=False)!r} ms, "
        f"setup {median(s.seconds for s in setups)!r} s, "
        f"host-speed factor median {median(p.scale for p in passes)!r}",
    ]
    return metrics, notes


def session_layer_metrics(
    self_ns: dict[str, int], spans: dict[str, int], counts: dict[str, int], ops: int
) -> dict[str, float]:
    """Per-op self times and counts of the layers every session runs."""

    def us_per_op(layer: str) -> float:
        return self_ns[layer] / ops / 1e3

    calls = counts["replicated_calls"] + counts["fanned_calls"]
    return {
        "apps.us_per_op": us_per_op("apps"),
        "variations.us_per_op": us_per_op("variations"),
        "variations.calls_per_op": spans["variations"] / ops,
        "monitor.us_per_op": us_per_op("monitor"),
        "monitor.rounds_per_op": counts["lockstep_points"] / ops,
        "monitor.fast_path_share": counts["fast_path_rounds"] / counts["lockstep_points"],
        "wrappers.us_per_op": us_per_op("wrappers"),
        "wrappers.replicated_share": counts["replicated_calls"] / calls,
        "kernel.us_per_op": us_per_op("kernel"),
        "kernel.syscalls_per_op": counts["syscalls"] / ops,
        "session.us_per_op": us_per_op("session"),
    }


def complete_per_layer(metrics: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric in ``PER_LAYER`` order; layers not run read 0."""
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}
