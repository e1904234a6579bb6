"""Benchmark: aggregate throughput of the concurrent multi-session engine.

The engine interleaves M independent N-variant httpd sessions (sharded
replicas, each on its own simulated host) and accounts virtual time as the
max over sessions -- the parallel-hardware semantics.  The acceptance bar:
aggregate requests/sec at 8 concurrent sessions is at least 4x the
single-session baseline, with zero spurious alarms on the benign workload.
"""

from conftest import emit, write_results

from repro.api.spec import ADDRESS_UID_SPEC, FleetSpec, WorkloadSpec
from repro.apps.clients.webbench import drive_engine

#: Benign requests served by each session (kept small: virtual time is
#: deterministic, so scaling ratios do not depend on the workload size).
REQUESTS_PER_SESSION = 12

#: Session counts swept by the scaling study.
SESSION_COUNTS = (1, 2, 4, 8)

#: The per-session system under test: address partitioning + UID diversity.
SYSTEM = ADDRESS_UID_SPEC.with_name("httpd")


def _fleet(sessions: int, *, total_requests: int, requests_per_connection: int = 1,
           multiplex: int = 1, name: str | None = None) -> FleetSpec:
    return FleetSpec(
        name=name if name is not None else f"engine-{sessions}",
        system=SYSTEM,
        num_sessions=sessions,
        workload=WorkloadSpec(
            total_requests=total_requests,
            requests_per_connection=requests_per_connection,
        ),
        multiplex=multiplex,
    )


def run_scaling(requests_per_session: int = REQUESTS_PER_SESSION):
    """Drive the benign workload at each session count; returns measurements."""
    results = {}
    for sessions in SESSION_COUNTS:
        results[sessions] = drive_engine(
            _fleet(sessions, total_requests=requests_per_session * sessions)
        )
    return results


def format_scaling(results) -> str:
    lines = [
        f"{'sessions':>8} {'requests':>9} {'alarms':>7} "
        f"{'req/ktick':>10} {'seq req/ktick':>14} {'speedup':>8}"
    ]
    for sessions, measurement in results.items():
        lines.append(
            f"{sessions:>8} {measurement.requests_completed:>9} {measurement.alarms:>7} "
            f"{measurement.requests_per_kilotick():>10.2f} "
            f"{measurement.sequential_requests_per_kilotick():>14.2f} "
            f"{measurement.speedup():>8.2f}"
        )
    return "\n".join(lines)


def test_engine_throughput_scaling(benchmark):
    """8 concurrent sessions sustain >= 4x the single-session request rate.

    With per-session hosts the max-over-sessions time accounting makes the
    speedup structural GIVEN that interleaving adds no per-session overhead,
    so the load-bearing assertions are the non-interference guards: every
    session must consume the same virtual time it would alone (this is what
    catches a scheduler that makes sessions burn extra syscall rounds, e.g.
    re-polling a drained accept queue), and the scheduler may not take more
    turns than the longest session has rounds.
    """
    results = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    emit("Engine throughput: requests/sec vs. session count", format_scaling(results))

    for sessions, measurement in results.items():
        assert measurement.completed_ok, (
            f"{sessions} sessions: {measurement.requests_completed}/"
            f"{measurement.requests_sent} completed, {measurement.alarms} alarms"
        )
        assert measurement.status_counts == {200: measurement.requests_sent}

    # Non-interference: each of the 8 interleaved sessions costs exactly what
    # the lone session cost (identical shards, deterministic simulation).
    baseline_elapsed = results[1].engine_result.jobs[0].virtual_elapsed
    for entry in results[8].engine_result.jobs:
        assert entry.virtual_elapsed == baseline_elapsed, (
            entry.name, entry.virtual_elapsed, baseline_elapsed
        )
    # Scheduler efficiency: one turn per round of the longest session.
    longest = max(s.rounds for s in results[8].engine_result.jobs)
    assert results[8].engine_result.scheduler_turns <= longest + 1

    baseline = results[1].requests_per_kilotick()
    concurrent = results[8].requests_per_kilotick()
    assert concurrent >= 4.0 * baseline, (baseline, concurrent)

    write_results(
        "engine_throughput",
        {
            "config": {
                "system": SYSTEM.to_dict(),
                "requests_per_session": REQUESTS_PER_SESSION,
                "session_counts": list(SESSION_COUNTS),
            },
            "rows": [
                {
                    "sessions": sessions,
                    "requests_completed": measurement.requests_completed,
                    "alarms": measurement.alarms,
                    "requests_per_kilotick": round(measurement.requests_per_kilotick(), 3),
                    "speedup": round(measurement.speedup(), 3),
                }
                for sessions, measurement in results.items()
            ],
            "speedup_at_8_sessions": round(concurrent / baseline, 3),
        },
    )


def test_engine_keepalive_multiplexing(benchmark):
    """Keep-alive pipelining with a multiplexing server costs fewer syscalls
    per request than one-connection-per-request, at identical responses."""

    def run_pair():
        serial = drive_engine(
            _fleet(2, total_requests=24, name="serial-connections")
        )
        keepalive = drive_engine(
            _fleet(
                2,
                total_requests=24,
                requests_per_connection=4,
                multiplex=4,
                name="keepalive-multiplexed",
            )
        )
        return serial, keepalive

    serial, keepalive = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    emit(
        "Engine keep-alive multiplexing",
        f"serial:    {serial.requests_completed} requests in {serial.virtual_elapsed} ticks\n"
        f"keepalive: {keepalive.requests_completed} requests in {keepalive.virtual_elapsed} ticks",
    )
    assert serial.completed_ok and keepalive.completed_ok
    assert keepalive.status_counts == serial.status_counts
    # Accept/shutdown/close amortise over the pipeline, so virtual time drops.
    assert keepalive.virtual_elapsed < serial.virtual_elapsed
