"""Wall-clock benchmark of the protected servers and the detection corpus.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from the repository root and prints its metrics; see
``run.py`` for the command line and ``BENCHMARK.json`` for the metric list.
The benchmark drives the program from outside, through its public entry
points, and never edits ``src/``.
"""
