# Developer/CI entry points.
#
#   make test             -- the tier-1 verification suite (tests/ only; slow-marked
#                            suites are deselected via pytest.ini)
#   make check            -- tier-1 tests + CLI scenario smoke + experiments smoke
#                            + benchmark trajectory gate + check-parallel
#                            + examples (CI gate)
#   make check-parallel   -- tier-1 + the slow parity/stress suites + a smoke run
#                            of the campaign-throughput benchmark
#   make check-procs      -- the multi-process tier: procpool unit tests plus the
#                            slow cross-backend (virtual vs process) parity sweep
#   make check-bench      -- smoke-regenerate benchmarks/results/, then diff
#                            against the baseline with claim flips fatal
#   make check-keyed      -- the keyed-scheme/attacker-model tier: both unit
#                            suites plus an entropy-experiment smoke via the CLI
#   make check-corpus     -- the scenario-corpus tier: corpus/seed unit suites,
#                            then generate a small corpus and run the corpus
#                            experiment over it (scorecard must be all-pass)
#   make check-load       -- the open-loop load tier: arrivals/admission and
#                            checkpoint/migration unit suites, a seeded loadtest
#                            smoke via the CLI, the migration round-trip
#                            scenario, and the committed-figure freshness check
#   make check-hash-order -- run the table2/detection/apps experiment smokes
#                            under two PYTHONHASHSEED values; the JSON must match
#   make figures          -- re-render benchmarks/figures/ from the committed
#                            benchmark results
#   make experiments-smoke -- every registered experiment at its smallest spec,
#                            via the CLI (claims gate the exit code)
#   make bench            -- every benchmark, with timing; each writes
#                            benchmarks/results/BENCH_<name>.json
#   make bench-smoke      -- every benchmark once, no timing (fast CI exercise;
#                            the procpool bench runs its tiny smoke matrix)
#   make bench-procpool-smoke -- just the process-tier benchmark's smoke matrix
#   make bench-diff       -- per-metric deltas of benchmarks/results/ against
#                            the committed benchmarks/baseline/ snapshot
#   make examples         -- run each example script end to end

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# bench_diff.py is the trajectory-diff tool, not a pytest benchmark.
BENCHES := $(filter-out benchmarks/bench_diff.py,$(wildcard benchmarks/bench_*.py))
EXAMPLES := $(wildcard examples/*.py)

.PHONY: test check check-parallel check-procs check-bench check-keyed \
	check-corpus check-apps check-load check-hash-order experiments-smoke bench bench-smoke \
	bench-procpool-smoke bench-diff figures examples

test:
	$(PYTHON) -m pytest -x -q

check: test experiments-smoke check-keyed check-corpus check-apps check-load check-hash-order check-bench \
	check-parallel examples
	$(PYTHON) -m repro run examples/scenarios/detection_matrix.json > /dev/null
	$(PYTHON) -m repro run examples/scenarios/throughput.json > /dev/null
	$(PYTHON) -m repro run examples/scenarios/campaign.json --parallelism 8 > /dev/null
	$(PYTHON) -m repro run examples/scenarios/campaign.json --backend process --workers 2 > /dev/null
	$(PYTHON) -m repro run examples/scenarios/table3.json > /dev/null
	$(PYTHON) -m repro run examples/scenarios/ablations.json > /dev/null
	$(PYTHON) -m repro run examples/scenarios/address_orbit.json > /dev/null
	@echo "check ok: tier-1 tests + experiments smoke + bench gate + parity/stress suites + examples + CLI scenario smoke"

# Every registered experiment at its smallest meaningful parameters, through
# the same CLI path users take; a failed claim fails the target, and so does
# a broken (or empty) registry listing.
experiments-smoke:
	@set -e; names=$$($(PYTHON) -m repro experiments --names); \
	test -n "$$names" || { echo "experiments-smoke: no experiments listed" >&2; exit 1; }; \
	for name in $$names; do \
		echo "== experiment $$name (smoke)"; \
		$(PYTHON) -m repro experiment $$name --smoke > /dev/null; \
	done; echo "experiments-smoke ok: every registered experiment ran clean"

# The engine-parallel gate: the serial-parity property suite and the
# scheduler stress tests (both marked `slow`, deselected from tier-1), then
# one assertion-only pass of the campaign-throughput benchmark.
check-parallel: test
	$(PYTHON) -m pytest -q -m slow tests/test_campaign_parallel.py tests/test_engine_concurrency.py
	$(PYTHON) -m pytest benchmarks/bench_campaign_throughput.py -q --benchmark-disable
	@echo "check-parallel ok: tier-1 + parity/stress suites + campaign bench smoke"

# The multi-process tier gate: the procpool unit suite (real forked workers),
# the slow cross-backend parity sweep (virtual vs process at 1/2/4 workers),
# and the wall-clock benchmark's smoke matrix.
check-procs:
	$(PYTHON) -m pytest -q tests/test_procpool.py
	$(PYTHON) -m pytest -q -m slow tests/test_campaign_parallel.py
	BENCH_PROCPOOL_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_procpool.py -q --benchmark-disable
	@echo "check-procs ok: procpool unit suite + cross-backend parity + bench smoke"

# The keyed tier gate: keyed-scheme determinism/rotation, the attacker-model
# suite (including the process-backend parity and WorkerError CLI checks),
# and one seeded entropy-experiment smoke through the CLI.
check-keyed:
	$(PYTHON) -m pytest -q tests/test_keyed_schemes.py tests/test_security_attacker.py
	$(PYTHON) -m repro experiment entropy --smoke --seed 20080625 > /dev/null
	@echo "check-keyed ok: keyed schemes + attacker suite + entropy smoke"

# The scenario-corpus gate: the corpus/oracle/scorecard unit suite and the
# seed/boundary properties, then a generate -> run round trip through the CLI
# (a written smoke corpus, graded on both backends; any scorecard miss fails
# the experiment's claims and with them the target).
check-corpus:
	$(PYTHON) -m pytest -q tests/test_corpus.py tests/test_seed_and_boundaries.py
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(PYTHON) -m repro corpus generate --seed 20080625 --records 60 --out "$$dir" > /dev/null; \
	$(PYTHON) -m repro experiment corpus --corpus-dir "$$dir" --set workers=4 > /dev/null
	@echo "check-corpus ok: corpus suites + generated-corpus scorecard all-pass"

# The second-workload gate: the interposition-table and fd-orbit unit suites,
# the ftpd suite, the cross-app parity matrix, the fd-orbit slice of the
# partition-scheme invariant sweep, then the apps experiment's claims (the
# virtual-backend smoke) and one ftpd campaign scenario through the CLI.
check-apps:
	$(PYTHON) -m pytest -q tests/test_interpose.py tests/test_fdspace.py \
		tests/test_apps_ftpd.py tests/test_cross_app_parity.py
	$(PYTHON) -m pytest -q tests/test_partition_schemes.py -k "fd"
	$(PYTHON) -m repro experiment apps --smoke > /dev/null
	$(PYTHON) -m repro run examples/scenarios/ftpd_campaign.json > /dev/null
	@echo "check-apps ok: interposition + fd-orbit + ftpd suites, parity, apps smoke"

# The open-loop load gate: the arrivals/admission/latency/intake unit suite
# and the checkpoint/restore/migration property suite, a seeded loadtest
# experiment smoke through the CLI (claims gate the exit code), the example
# scenario's bursty-overload + mid-run-migration round trip, and the check
# that the committed figures match the committed benchmark results.
check-load:
	$(PYTHON) -m pytest -q tests/test_load_subsystem.py tests/test_load_checkpoint.py
	$(PYTHON) -m repro experiment loadtest --smoke --seed 20080625 > /dev/null
	$(PYTHON) -m repro run examples/scenarios/loadtest.json > /dev/null
	$(PYTHON) benchmarks/render_figures.py --check
	@echo "check-load ok: load suites + loadtest smoke + migration scenario + figures"

# The hash-order guard: syscalls hash by identity and strings by a salted
# hash, so set iteration order differs between processes; experiment output
# must not.  The slow-marked suite compares smoke JSON across two hash seeds.
check-hash-order:
	$(PYTHON) -m pytest -q -m slow tests/test_hash_order.py
	@echo "check-hash-order ok: experiment output is independent of hash order"

figures:
	$(PYTHON) benchmarks/render_figures.py

# The benchmark trajectory gate: regenerate results/ in smoke mode (virtual-time
# payloads are deterministic, so a clean tree reproduces the committed files),
# then diff against the committed baseline with non-numeric flips fatal.  The
# small --rtol absorbs float-formatting jitter without hiding real moves.
check-bench: bench-smoke
	$(PYTHON) benchmarks/bench_diff.py --fail-on-flip --rtol 0.001
	@echo "check-bench ok: benchmark trajectory matches the committed baseline"

bench:
	$(PYTHON) -m pytest $(BENCHES) -q --benchmark-only -s

# --benchmark-disable runs every benchmarked function exactly once as a plain
# test, so CI exercises each benchmark's assertions without paying for timing
# rounds.  BENCH_PROCPOOL_SMOKE shrinks the wall-clock benchmark to its tiny
# matrix and keeps it from overwriting its committed (full-run) results file.
bench-smoke:
	BENCH_PROCPOOL_SMOKE=1 $(PYTHON) -m pytest $(BENCHES) -q --benchmark-disable

bench-procpool-smoke:
	BENCH_PROCPOOL_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_procpool.py -q --benchmark-disable

# Cross-PR benchmark trajectory: compare the current results/ files against
# the committed baseline/ snapshot and print per-metric deltas.
bench-diff:
	$(PYTHON) benchmarks/bench_diff.py

examples:
	@set -e; for example in $(EXAMPLES); do \
		echo "== $$example"; \
		$(PYTHON) $$example > /dev/null; \
	done; echo "all examples ok"
