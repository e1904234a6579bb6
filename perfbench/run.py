"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload httpd-addr-uid --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate traced run and prints the per-layer metrics.  The notes
also give every latency percentile (p50, p95, p99) with its sample count,
and the wall-clock figures behind the gated times, which are adjusted to a
reference host speed measured in the run (``perfbench/yardstick.py``).

Human-readable notes come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The command exits 1 when any output fails its correctness
check, and 2 when the program under test cannot be found.  ``--trace 1``
also writes every span to ``.perfbench/spans-<workload>-<seed>.csv``.

``--smoke`` runs tiny sizes once (a functional check, not a measurement).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("httpd-addr-uid", "ftpd-fd3", "corpus-inproc")


def _peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest finished child."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.metrics import END_TO_END, PER_LAYER, complete_per_layer

    options = dict(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    if args.workload == "corpus-inproc":
        from perfbench.corpus import run_corpus

        outcome = run_corpus(**options)
    else:
        from perfbench.serving import run_serving

        outcome = run_serving(args.workload, **options)

    if args.trace:
        metrics, units = complete_per_layer(outcome.metrics), PER_LAYER
    else:
        metrics, units = dict(outcome.metrics, peak_rss_mb=_peak_rss_mb()), END_TO_END
        metrics = {name: metrics.get(name, float("nan")) for name in END_TO_END}
    if outcome.tracer is not None:
        outcome.tracer.write_csv(ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.csv")
    correct = outcome.failed == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in outcome.notes:
        print(f"  {note}")
    failed_frac = outcome.failed / outcome.attempted
    print(f"  failed_frac {failed_frac!r} ({outcome.failed} of {outcome.attempted})")
    for name, value in metrics.items():
        print(f"  {name} {value!r} {units[name]}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
