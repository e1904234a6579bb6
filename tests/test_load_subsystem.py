"""The open-loop load primitives: arrivals, admission, latency, engine intake.

Three properties carry the subsystem's weight.  Arrival processes are
*seeded open-loop generators*: the same derived seed renders the same
schedule regardless of how fast anything drains, and every registered kind
emits strictly increasing positive ticks at (approximately) the quoted
rate.  Admission policies are pure decision logic whose telemetry must
balance -- offered splits exactly into admitted and shed, occupancy never
leaks.  And the engine's ``offer`` intake is the policy's enforcement
point: a full queue really refuses (or evicts) sessions, and departures
flow back into the policy's occupancy.
"""

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.cli import main as cli_main
from repro.api.spec import uid_orbit_spec
from repro.engine import MultiSessionEngine, SessionState
from repro.load import (
    AcceptAllPolicy,
    BoundedQueuePolicy,
    LatencyHistogram,
    LoadError,
    TokenBucketPolicy,
    UnknownAdmissionError,
    UnknownArrivalError,
    admission_kinds,
    arrival_kinds,
    build_serving_session,
    create_admission_policy,
    create_arrival_process,
    run_loadtest,
)


class TestArrivalProcesses:
    def test_registered_kinds(self):
        assert arrival_kinds() == ["bursty", "constant", "poisson", "ramp"]

    @pytest.mark.parametrize("kind", ["bursty", "constant", "poisson", "ramp"])
    def test_schedules_are_increasing_positive_ticks(self, kind):
        process = create_arrival_process(kind, 10.0, rng=random.Random(7))
        ticks = process.schedule(50)
        assert len(ticks) == 50
        assert ticks[0] >= 1
        assert all(b > a for a, b in zip(ticks, ticks[1:]))
        assert all(isinstance(t, int) for t in ticks)

    @pytest.mark.parametrize("kind", ["bursty", "constant", "poisson", "ramp"])
    def test_same_seed_same_schedule(self, kind):
        first = create_arrival_process(kind, 8.0, rng=random.Random(99)).schedule(40)
        second = create_arrival_process(kind, 8.0, rng=random.Random(99)).schedule(40)
        assert first == second

    def test_different_seeds_differ(self):
        first = create_arrival_process("poisson", 8.0, rng=random.Random(1)).schedule(30)
        second = create_arrival_process("poisson", 8.0, rng=random.Random(2)).schedule(30)
        assert first != second

    def test_constant_schedule_matches_rate_exactly(self):
        # 8 req/ktick -> 125-tick gaps, no randomness involved.
        ticks = create_arrival_process("constant", 8.0).schedule(4)
        assert ticks == [125, 250, 375, 500]

    @pytest.mark.parametrize("kind", ["bursty", "poisson"])
    def test_long_run_rate_approximates_quoted_rate(self, kind):
        process = create_arrival_process(kind, 10.0, rng=random.Random(5))
        ticks = process.schedule(400)
        achieved = 400 / (ticks[-1] / 1000.0)
        assert achieved == pytest.approx(10.0, rel=0.35)

    def test_ramp_is_deterministic_and_accelerates(self):
        ticks = create_arrival_process("ramp", 10.0, rng=random.Random(3)).schedule(20)
        again = create_arrival_process("ramp", 10.0, rng=random.Random(4)).schedule(20)
        assert ticks == again  # the rng is never consulted
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert gaps[0] > gaps[-1]

    def test_unknown_kind_lists_registry(self):
        with pytest.raises(UnknownArrivalError) as excinfo:
            create_arrival_process("sawtooth", 8.0)
        message = str(excinfo.value)
        assert "unknown arrival process 'sawtooth'" in message
        for kind in arrival_kinds():
            assert kind in message

    def test_bad_parameters_raise_load_error(self):
        with pytest.raises(LoadError, match="bad parameters"):
            create_arrival_process("poisson", 8.0, warp=9)
        with pytest.raises(LoadError, match="positive number"):
            create_arrival_process("poisson", 0)
        with pytest.raises(LoadError, match="positive number"):
            create_arrival_process("poisson", True)
        with pytest.raises(LoadError, match="burst_factor"):
            create_arrival_process("bursty", 8.0, burst_factor=1.0)
        with pytest.raises(LoadError, match="ramp_from"):
            create_arrival_process("ramp", 8.0, ramp_from=-1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(LoadError, match="count"):
            create_arrival_process("constant", 8.0).schedule(-1)

    @given(seed=st.integers(0, 2**32), rate=st.floats(0.5, 200.0))
    @settings(max_examples=30, deadline=None)
    def test_bursty_always_terminates_increasing(self, seed, rate):
        # The MMPP sampler redraws inside fresh ON periods; it must never
        # wedge, whatever the rate/seed combination.
        ticks = create_arrival_process("bursty", rate, rng=random.Random(seed)).schedule(25)
        assert len(ticks) == 25
        assert all(b > a for a, b in zip(ticks, ticks[1:]))


class TestAdmissionPolicies:
    def test_registered_kinds(self):
        assert admission_kinds() == ["accept-all", "bounded-queue", "token-bucket"]

    def test_accept_all_never_sheds_and_counts(self):
        policy = AcceptAllPolicy()
        for now in range(10):
            assert policy.offer(now).admitted
        assert policy.stats.to_dict() == {
            "admitted": 10,
            "offered": 10,
            "queue_high_water": 10,
            "queued": 10,
            "shed": 0,
        }
        for _ in range(10):
            policy.released()
        assert policy.stats.queued == 0
        assert policy.stats.queue_high_water == 10

    def test_bounded_newest_sheds_at_capacity(self):
        policy = BoundedQueuePolicy(capacity=2, drop="newest")
        assert policy.offer(0).admitted
        assert policy.offer(1).admitted
        refused = policy.offer(2)
        assert not refused.admitted and not refused.evict_oldest
        assert policy.stats.shed == 1
        policy.released()  # one completes
        assert policy.offer(3).admitted
        assert policy.stats.queue_high_water == 2

    def test_bounded_oldest_asks_caller_to_evict(self):
        policy = BoundedQueuePolicy(capacity=2, drop="oldest")
        policy.offer(0)
        policy.offer(1)
        decision = policy.offer(2)
        assert decision.admitted and decision.evict_oldest
        policy.released()  # the caller evicts its oldest entry
        assert policy.stats.queued == 2
        assert policy.stats.shed == 1
        assert policy.stats.admitted == 3
        assert policy.stats.queue_high_water == 2

    def test_token_bucket_sheds_on_rate_and_refills(self):
        policy = TokenBucketPolicy(rate=1000.0, burst=2.0)  # 1 token per tick
        assert policy.offer(0).admitted
        assert policy.offer(0).admitted
        assert not policy.offer(0).admitted  # burst spent, same instant
        assert policy.offer(3).admitted  # refilled while time passed
        assert policy.stats.shed == 1

    def test_released_underflow_raises(self):
        policy = AcceptAllPolicy()
        with pytest.raises(LoadError, match="released more work"):
            policy.released()

    def test_unknown_kind_lists_registry(self):
        with pytest.raises(UnknownAdmissionError) as excinfo:
            create_admission_policy("coin-flip")
        message = str(excinfo.value)
        assert "unknown admission policy 'coin-flip'" in message
        for kind in admission_kinds():
            assert kind in message

    def test_bad_parameters_raise_load_error(self):
        with pytest.raises(LoadError, match="bad parameters"):
            create_admission_policy("accept-all", capacity=3)
        with pytest.raises(LoadError, match="capacity"):
            create_admission_policy("bounded-queue", capacity=0)
        with pytest.raises(LoadError, match="drop"):
            create_admission_policy("bounded-queue", drop="middle")
        with pytest.raises(LoadError, match="token rate"):
            create_admission_policy("token-bucket", rate=0)
        with pytest.raises(LoadError, match="burst"):
            create_admission_policy("token-bucket", burst=0.5)

    @given(
        capacity=st.integers(1, 6),
        offers=st.lists(st.integers(0, 5), min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_telemetry_always_balances(self, capacity, offers):
        # offered == admitted - (drop-oldest re-admissions) + shed is policy
        # specific; what must hold universally: occupancy stays within
        # capacity after each eviction and counters never go negative.
        policy = BoundedQueuePolicy(capacity=capacity, drop="newest")
        releases = 0
        for step, release_count in enumerate(offers):
            policy.offer(step)
            for _ in range(min(release_count, policy.stats.queued)):
                policy.released()
                releases += 1
        stats = policy.stats
        assert stats.offered == len(offers)
        assert stats.admitted + stats.shed == stats.offered
        assert stats.queued == stats.admitted - releases
        assert 0 <= stats.queued <= capacity
        assert stats.queue_high_water <= capacity


class TestLatencyHistogram:
    def test_empty_statistics_are_nan_and_json_null(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        for value in (histogram.mean, histogram.min, histogram.max, histogram.p50,
                      histogram.p99, histogram.p999):
            assert math.isnan(value)
        payload = histogram.to_dict()
        assert payload["count"] == 0
        assert all(payload[key] is None for key in ("mean", "min", "max", "p50",
                                                    "p90", "p99", "p999"))

    def test_nearest_rank_percentiles(self):
        histogram = LatencyHistogram()
        for value in (10, 20, 30, 40, 50, 60, 70, 80, 90, 100):
            histogram.add(value)
        assert histogram.p50 == 50.0
        assert histogram.p90 == 90.0
        assert histogram.p99 == 100.0
        assert histogram.p999 == 100.0
        assert histogram.percentile(10) == 10.0
        assert histogram.mean == 55.0
        assert histogram.min == 10.0 and histogram.max == 100.0

    def test_single_sample_dominates_every_percentile(self):
        histogram = LatencyHistogram()
        histogram.add(42)
        assert histogram.p50 == histogram.p999 == 42.0

    def test_validation(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError, match="sojourn"):
            histogram.add(-1)
        with pytest.raises(ValueError, match="percentile"):
            histogram.percentile(0)
        with pytest.raises(ValueError, match="percentile"):
            histogram.percentile(101)

    @given(samples=st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentiles_are_order_statistics(self, samples):
        histogram = LatencyHistogram()
        for sample in samples:
            histogram.add(sample)
        ordered = sorted(samples)
        assert histogram.min == ordered[0]
        assert histogram.max == ordered[-1]
        assert histogram.p50 in ordered
        assert histogram.p50 <= histogram.p90 <= histogram.p99 <= histogram.p999


def _fresh_session(name, requests=1):
    """A fresh (never-stepped) serving session with *requests* queued."""
    from repro.attacks.payloads import benign_request

    session = build_serving_session(
        uid_orbit_spec(2), "httpd", name=name, max_requests=requests
    )
    for _ in range(requests):
        session.kernel.client_connect(80, benign_request())
    return session


class TestEngineIntake:
    def test_offer_without_intake_admits(self):
        engine = MultiSessionEngine([], name="open")
        assert engine.offer(_fresh_session("s1"))
        assert [job.name for job in engine.jobs] == ["s1"]

    def test_offer_sheds_when_bounded_queue_full(self):
        policy = BoundedQueuePolicy(capacity=2, drop="newest")
        engine = MultiSessionEngine([], name="bounded", intake=policy)
        assert engine.offer(_fresh_session("s1"))
        assert engine.offer(_fresh_session("s2"))
        assert not engine.offer(_fresh_session("s3"))
        assert [job.name for job in engine.jobs] == ["s1", "s2"]
        assert policy.stats.shed == 1

    def test_offer_evicts_oldest_unstarted_session(self):
        policy = BoundedQueuePolicy(capacity=2, drop="oldest")
        engine = MultiSessionEngine([], name="evicting", intake=policy)
        engine.offer(_fresh_session("s1"))
        engine.offer(_fresh_session("s2"))
        assert engine.offer(_fresh_session("s3"))
        assert [job.name for job in engine.jobs] == ["s2", "s3"]
        assert policy.stats.queued == 2

    def test_completed_sessions_release_their_slot(self):
        policy = BoundedQueuePolicy(capacity=1, drop="newest")
        engine = MultiSessionEngine([], name="draining", intake=policy)
        assert engine.offer(_fresh_session("s1"))
        assert not engine.offer(_fresh_session("blocked"))
        result = engine.run()
        assert result.jobs[0].state is SessionState.COMPLETED
        assert policy.stats.queued == 0
        assert engine.offer(_fresh_session("s2"))


class TestDriverAccounting:
    def test_unknown_attack_kind_raises(self):
        with pytest.raises(LoadError, match="unknown attack kind"):
            run_loadtest(uid_orbit_spec(2), requests=2, attacks=("rm-rf",), seed=1)

    def test_requests_and_multiplex_validation(self):
        with pytest.raises(LoadError, match="requests"):
            run_loadtest(uid_orbit_spec(2), requests=-1, seed=1)
        with pytest.raises(LoadError, match="multiplex"):
            run_loadtest(uid_orbit_spec(2), requests=2, multiplex=0, seed=1)

    def test_seeded_runs_are_identical(self):
        first = run_loadtest(uid_orbit_spec(2), requests=8, rate=20.0, seed=77)
        second = run_loadtest(uid_orbit_spec(2), requests=8, rate=20.0, seed=77)
        assert first.to_dict() == second.to_dict()

    def test_accounting_balances_under_shedding(self):
        result = run_loadtest(
            uid_orbit_spec(2),
            requests=16,
            rate=200.0,
            seed=5,
            admission="bounded-queue",
            admission_params={"capacity": 2, "drop": "oldest"},
        )
        assert result.offered == 16
        assert result.completed + result.evicted + result.aborted == result.admitted
        assert result.shed > 0
        assert result.queue_high_water <= 2
        assert result.alarms == 0
        assert result.latency.count == result.completed


LOADTEST_SCENARIO = Path(__file__).resolve().parents[1] / "examples" / "scenarios" / "loadtest.json"


class TestLoadtestScenarioCLI:
    """The example loadtest scenario end to end through ``python -m repro run``."""

    def test_text_report(self, capsys):
        assert cli_main(["run", str(LOADTEST_SCENARIO)]) == 0
        out = capsys.readouterr().out
        assert "offered 26, admitted 26, shed 18, completed 6" in out
        assert "migrated mid-run" in out
        assert "attack uid-overwrite: halted" in out
        assert "attack pointer-overwrite: halted" in out

    def test_json_report(self, capsys):
        assert cli_main(["run", str(LOADTEST_SCENARIO), "--output", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"] == "loadtest"
        assert (report["offered"], report["admitted"], report["shed"]) == (26, 26, 18)
        assert report["migrated"] is True
        assert [(o["attack"], o["halted"]) for o in report["attack_outcomes"]] == [
            ("uid-overwrite", True),
            ("pointer-overwrite", True),
        ]
