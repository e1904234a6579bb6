"""Benchmark: campaign throughput through the engine's worker pool.

The detection-matrix scenario -- every standard attack against the paper's
four configurations plus the 3-variant UID orbit -- is one batch of
independent cells, so the campaign scheduler's worker pool turns it into a
near-linear concurrency win in engine virtual time: each worker slot runs its
share of cells back-to-back while the slots progress in parallel, and the
campaign's elapsed time is the max over slots instead of the serial sum.

The acceptance bar: ``parallelism=8`` is at least 3x faster than the serial
campaign while producing byte-identical per-cell outcomes, with no scheduler
starvation.
"""

from conftest import emit, write_results

from repro.api.campaign import run_campaign
from repro.api.spec import STANDARD_SYSTEM_SPECS, UID_ORBIT_3_SPEC

#: Worker counts swept by the scaling study.
PARALLELISMS = (1, 2, 4, 8)

#: The detection-matrix scenario's configurations, with the N=3 orbit riding
#: along so the N-way sweep axis is part of the measured workload.
SPECS = (*STANDARD_SYSTEM_SPECS, UID_ORBIT_3_SPEC)


def run_scaling():
    """Run the full standard-attack campaign at each worker count."""
    return {
        parallelism: run_campaign(SPECS, parallelism=parallelism)
        for parallelism in PARALLELISMS
    }


def format_scaling(results) -> str:
    lines = [
        f"{'workers':>8} {'cells':>6} {'ticks':>8} {'seq ticks':>10} "
        f"{'speedup':>8} {'turns':>6}"
    ]
    for parallelism, report in results.items():
        execution = report.execution
        lines.append(
            f"{parallelism:>8} {len(execution.jobs):>6} {execution.virtual_elapsed:>8} "
            f"{execution.virtual_elapsed_sequential:>10} {execution.speedup():>8.2f} "
            f"{execution.scheduler_turns:>6}"
        )
    return "\n".join(lines)


def test_campaign_throughput_scaling(benchmark):
    """8 workers run the detection-matrix campaign >= 3x faster than serial.

    Speedup is measured in engine virtual time (worker slots model replicas
    on parallel hardware), and the parity assertions are load-bearing: the
    speedup may never come from changing what any cell computes.
    """
    results = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    emit("Campaign throughput: virtual time vs. worker count", format_scaling(results))

    serial = results[1]
    assert serial.execution.virtual_elapsed == serial.execution.virtual_elapsed_sequential
    for parallelism, report in results.items():
        # Parity: identical outcomes, identical order, at every worker count.
        assert report.outcomes == serial.outcomes, parallelism
        assert len(report.execution.jobs) == len(SPECS) * 9  # 7 UID + 2 address attacks

    # The N=3 orbit ran through the full campaign path and held the guarantee.
    orbit_rate = serial.detection_rate("3-variant-uid-orbit")
    assert orbit_rate >= serial.detection_rate("single-process")
    assert any(o.configuration == "3-variant-uid-orbit" for o in serial.outcomes)

    speedup = (
        serial.execution.virtual_elapsed / results[8].execution.virtual_elapsed
    )
    assert speedup >= 3.0, speedup

    write_results(
        "campaign_throughput",
        {
            "config": {
                "systems": [spec.to_dict() for spec in SPECS],
                "parallelisms": list(PARALLELISMS),
            },
            "rows": [
                {
                    "parallelism": parallelism,
                    "cells": len(report.execution.jobs),
                    "virtual_elapsed": report.execution.virtual_elapsed,
                    "virtual_elapsed_sequential": report.execution.virtual_elapsed_sequential,
                    "speedup": round(report.execution.speedup(), 3),
                    "scheduler_turns": report.execution.scheduler_turns,
                }
                for parallelism, report in results.items()
            ],
            "speedup_at_8_workers": round(speedup, 3),
        },
    )
