"""The worker-side corpus cell runner for the process backend.

Workers resolve it by its ``module:function`` reference.  It returns the
procpool result mapping with the cell's outcome dict moved under
``value["outcome"]`` and the worker's own clock readings beside it, so the
master can compute worker busy time and per-cell latency.
"""

from __future__ import annotations

import time

from repro.corpus.runner import run_corpus_payload

RUNNER = "perfbench.cells:run_cell"


def run_cell(payload: dict) -> dict:
    """``run_corpus_payload`` with the worker's start and end times."""
    started = time.perf_counter()
    result = run_corpus_payload(payload)
    result["value"] = {"outcome": result["value"], "t0": started, "t1": time.perf_counter()}
    return result

