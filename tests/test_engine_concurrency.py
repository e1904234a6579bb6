"""Concurrent multi-session engine: determinism, halt policies, fresh stats.

The engine's claim is that interleaving changes *scheduling*, never
*behaviour*: N sessions run concurrently must produce exactly the alarms and
HTTP responses of the same N sessions run back-to-back, and one session's
alarm must stop only that session under the per-session halt policy.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.clients.webbench import WebBenchWorkload, drive_engine
from repro.apps.httpd.server import make_httpd_factory
from repro.attacks.payloads import benign_request, uid_overwrite_payload
from repro.core.alarm import AlarmType
from repro.core.variations.address import AddressPartitioning
from repro.core.variations.uid import UIDVariation
from repro.engine import (
    CampaignJob,
    HaltPolicy,
    MultiSessionEngine,
    NVariantSession,
    SessionState,
    run_jobs,
)
from repro.kernel.host import HTTP_PORT, build_standard_host


def _variations():
    return [AddressPartitioning(), UIDVariation()]


def _crash_after_first_syscall(factory, variant):
    """*factory* whose variant *variant* raises ValueError after one syscall."""

    def crashing_factory(context):
        program = factory(context)
        if context.index != variant:
            return program

        def crashing():
            yield program.send(None)
            raise ValueError("variant bug")

        return crashing()

    return crashing_factory


def _httpd_session(name, payloads, *, max_requests=None, crash_variant=None):
    """A 2-variant transformed httpd session on its own host, pre-loaded."""
    kernel = build_standard_host()
    for payload in payloads:
        kernel.client_connect(HTTP_PORT, payload)
    factory = make_httpd_factory(
        transformed=True, max_requests=max_requests if max_requests is not None else len(payloads)
    )
    if crash_variant is not None:
        factory = _crash_after_first_syscall(factory, crash_variant)
    session = NVariantSession(kernel, factory, _variations(), name=name)
    return kernel, session


def _benign_payloads(count, path="/index.html"):
    return [benign_request(path) for _ in range(count)]


def _responses(kernel):
    return [conn.response_bytes() for conn in kernel.network.connections]


def _alarm_signature(result):
    return [(alarm.alarm_type, alarm.syscall) for alarm in result.alarms]


class TestInterleavingDeterminism:
    def test_concurrent_sessions_match_sequential_runs(self):
        paths = ["/index.html", "/news.html", "/docs/faq.html", "/products.html"]
        sequential = []
        for index, path in enumerate(paths):
            kernel, session = _httpd_session(f"seq-{index}", _benign_payloads(3, path))
            result = session.run()
            sequential.append((_alarm_signature(result), _responses(kernel)))

        concurrent_sessions = []
        concurrent_kernels = []
        for index, path in enumerate(paths):
            kernel, session = _httpd_session(f"con-{index}", _benign_payloads(3, path))
            concurrent_kernels.append(kernel)
            concurrent_sessions.append(session)
        engine_result = MultiSessionEngine(concurrent_sessions).run()

        assert engine_result.total_alarms == 0
        for index, entry in enumerate(engine_result.jobs):
            assert entry.state is SessionState.COMPLETED
            expected_alarms, expected_responses = sequential[index]
            assert _alarm_signature(entry.value) == expected_alarms
            assert _responses(concurrent_kernels[index]) == expected_responses

    def test_unequal_session_lengths_all_complete(self):
        sessions = []
        kernels = []
        for index, count in enumerate((1, 4, 9)):
            kernel, session = _httpd_session(f"len-{index}", _benign_payloads(count))
            kernels.append(kernel)
            sessions.append(session)
        result = MultiSessionEngine(sessions).run()
        assert [entry.state for entry in result.jobs] == [SessionState.COMPLETED] * 3
        assert result.total_alarms == 0
        for kernel, count in zip(kernels, (1, 4, 9)):
            responses = _responses(kernel)
            assert len(responses) == count
            assert all(raw.startswith(b"HTTP/1.0 200") for raw in responses)

    def test_attack_detected_identically_under_interleaving(self):
        attack_payloads = [benign_request(), uid_overwrite_payload(0)]
        _, alone = _httpd_session("alone", attack_payloads)
        alone_result = alone.run()
        assert alone_result.attack_detected

        _, attacked = _httpd_session("attacked", attack_payloads)
        benign = [_httpd_session(f"b-{i}", _benign_payloads(3))[1] for i in range(3)]
        engine_result = MultiSessionEngine([attacked] + benign).run()
        assert (
            _alarm_signature(engine_result.job("attacked").value)
            == _alarm_signature(alone_result)
        )


class TestHaltPolicies:
    def _mixed_fleet(self):
        attack_kernel, attack_session = _httpd_session(
            "victim", [benign_request(), uid_overwrite_payload(0)]
        )
        benign_kernel, benign_session = _httpd_session("bystander", _benign_payloads(6))
        return attack_kernel, attack_session, benign_kernel, benign_session

    def test_per_session_halt_stops_only_the_alarming_session(self):
        attack_kernel, attack_session, benign_kernel, benign_session = self._mixed_fleet()
        result = MultiSessionEngine([attack_session, benign_session]).run()

        victim = result.job("victim")
        bystander = result.job("bystander")
        assert victim.state is SessionState.HALTED
        assert victim.alarms >= 1
        assert bystander.state is SessionState.COMPLETED
        assert bystander.alarms == 0
        responses = _responses(benign_kernel)
        assert len(responses) == 6
        assert all(raw.startswith(b"HTTP/1.0 200") for raw in responses)

    def test_halt_all_policy_stops_the_whole_fleet(self):
        _, attack_session, _, benign_session = self._mixed_fleet()
        result = MultiSessionEngine(
            [attack_session, benign_session], halt_policy=HaltPolicy.HALT_ALL
        ).run()
        assert result.job("victim").state is SessionState.HALTED
        bystander = result.job("bystander")
        assert bystander.state is SessionState.HALTED
        assert bystander.truncated and bystander.value is None
        assert bystander.alarms == 0


class TestMonitorStatsIsolation:
    def test_each_session_gets_fresh_stats(self):
        """Two identical sessions report identical (not accumulated) counters."""
        _, first = _httpd_session("first", _benign_payloads(2))
        _, second = _httpd_session("second", _benign_payloads(2))
        result = MultiSessionEngine([first, second]).run()
        stats_a = result.job("first").value.monitor.stats
        stats_b = result.job("second").value.monitor.stats
        assert stats_a.lockstep_points > 0
        assert dataclasses.asdict(stats_a) == dataclasses.asdict(stats_b)

    def test_run_resets_stale_monitor_counters(self):
        """Regression: stale MonitorStats must not leak into a run's result."""
        kernel = build_standard_host()
        kernel.client_connect(HTTP_PORT, benign_request())
        system = NVariantSession(
            kernel, make_httpd_factory(transformed=True, max_requests=1), _variations()
        )
        system.monitor.stats.lockstep_points = 123_456  # stale from a previous run
        system.monitor.stats.alarms_raised = 99
        result = system.run()
        assert result.completed_normally
        assert 0 < result.monitor.stats.lockstep_points < 123_456
        assert result.monitor.stats.alarms_raised == 0

    def test_monitor_reset_clears_alarms_and_counters(self):
        _, session = _httpd_session("reset", [benign_request(), uid_overwrite_payload(0)])
        session.run()
        monitor = session.monitor
        assert monitor.attack_detected and monitor.stats.alarms_raised > 0
        monitor.reset()
        assert not monitor.attack_detected
        assert monitor.stats.lockstep_points == 0
        assert monitor.stats.alarms_raised == 0


class TestServerMultiplexing:
    def test_pipeline_longer_than_one_recv_window_is_fully_served(self):
        """Regression: a keep-alive pipeline larger than the server's recv
        window (max_request_size + 4096 bytes) must be drained, not silently
        truncated mid-request."""
        from repro.apps.clients.webbench import drive_standalone

        measurement = drive_standalone(
            WebBenchWorkload(total_requests=200, requests_per_connection=200),
            transformed=False,
        )
        assert measurement.requests_completed == 200
        assert measurement.status_counts == {200: 200}

    def test_drained_accept_queue_is_not_repolled(self):
        """Regression: once the accept queue is empty the multiplexed loop
        must stop issuing failing accept calls on every scheduling turn."""
        from repro.apps.clients.webbench import drive_standalone

        kernel = build_standard_host()
        drive_standalone(
            WebBenchWorkload(total_requests=12, requests_per_connection=3),
            transformed=False,
            multiplex=8,
            kernel=kernel,
        )
        # 4 successful accepts (one per connection) + exactly 1 failed accept
        # that closes admission.
        assert kernel.stats.syscall_breakdown["accept"] == 5

    def test_truncated_trailing_fragment_is_not_completed(self):
        """split_requests must not synthesise the header terminator for a
        truncated trailing fragment."""
        from repro.apps.httpd.http import split_requests

        pipeline = benign_request("/a.html") + b"GET /b.html HTTP/1.0"
        parts = split_requests(pipeline)
        assert parts[0] == benign_request("/a.html")
        assert parts[-1] == b"GET /b.html HTTP/1.0"


@pytest.mark.slow
class TestCampaignSchedulerStress:
    """Fairness and fleet-halt behaviour of the campaign worker pool at scale."""

    def _benign_job(self, index, requests=3):
        def start():
            _, session = _httpd_session(f"stress-{index}", _benign_payloads(requests))
            return session

        return CampaignJob(name=f"stress-{index}", start=start, finish=lambda s: s.state)

    def _attack_job(self, index):
        def start():
            _, session = _httpd_session(
                f"attack-{index}", [benign_request(), uid_overwrite_payload(0)]
            )
            return session

        return CampaignJob(name=f"attack-{index}", start=start, finish=lambda s: s.state)

    def test_32_interleaved_campaign_sessions_complete_without_starvation(self):
        jobs = [self._benign_job(i, requests=1 + i % 4) for i in range(32)]
        result = MultiSessionEngine(jobs, parallelism=32, rounds_per_turn=2).run()

        assert len(result.completed_jobs) == 32 and not result.skipped_jobs
        assert all(job.value is SessionState.COMPLETED for job in result.jobs)
        assert result.max_live_sessions == 32
        # Scheduler efficiency: turns are bounded by the longest job's rounds
        # divided by the batch size (plus the final bookkeeping turn).
        longest = max(job.rounds for job in result.jobs)
        assert result.scheduler_turns <= (longest + 1) // 2 + 2

    def test_worker_pool_drains_a_deep_backlog(self):
        jobs = [self._benign_job(i) for i in range(40)]
        result = run_jobs(jobs, parallelism=8)
        assert len(result.completed_jobs) == 40
        assert result.max_live_sessions == 8
        # Eight workers sharing identical jobs land close to an 8x win.
        assert result.speedup() > 6.0

    def test_fleet_wide_halt_stops_stragglers_and_skips_backlog(self):
        # One attack session among long-running benign siblings, plus a
        # backlog that must never start once the campaign halts.
        jobs = (
            [self._benign_job(i, requests=9) for i in range(6)]
            + [self._attack_job(0)]
            + [self._benign_job(100 + i, requests=9) for i in range(8)]
        )
        result = MultiSessionEngine(
            jobs,
            parallelism=8,
            rounds_per_turn=1,
            halt_policy=HaltPolicy.HALT_ALL,
        ).run()

        states = [job.state for job in result.jobs if not job.skipped]
        assert SessionState.HALTED in states
        # Stragglers live at the halt are stopped, not run to completion: the
        # long benign sessions admitted alongside the attack must be halted,
        # marked truncated, and carry no fabricated value.
        siblings = [job for job in result.jobs[:6] if not job.skipped]
        assert siblings
        assert all(job.state is SessionState.HALTED for job in siblings)
        assert all(job.truncated and job.value is None for job in siblings)
        # The attack session itself halted on its own alarm: a real outcome.
        attack_job = next(job for job in result.jobs if job.name == "attack-0")
        assert not attack_job.truncated
        assert attack_job.value is SessionState.HALTED
        # The backlog past the worker pool is skipped entirely.
        assert result.skipped_jobs
        assert all(job.state is None for job in result.skipped_jobs)


class TestEngineMechanics:
    def test_stepping_matches_single_shot_run(self):
        _, stepped = _httpd_session("stepped", _benign_payloads(2))
        while not stepped.done:
            stepped.step()
        _, oneshot = _httpd_session("oneshot", _benign_payloads(2))
        oneshot_result = oneshot.run()
        assert stepped.result().lockstep_rounds == oneshot_result.lockstep_rounds
        assert stepped.state is SessionState.COMPLETED

    def test_virtual_elapsed_is_max_over_sessions(self):
        sessions = [_httpd_session(f"v-{i}", _benign_payloads(i + 1))[1] for i in range(3)]
        result = MultiSessionEngine(sessions).run()
        assert result.virtual_elapsed == max(s.virtual_elapsed for s in result.jobs)
        assert result.virtual_elapsed_sequential == sum(
            s.virtual_elapsed for s in result.jobs
        )
        assert result.virtual_elapsed < result.virtual_elapsed_sequential

    def test_rerunning_a_finished_session_raises(self):
        """A terminal session's programs are consumed; a repeated run() must
        raise rather than silently return the stale result."""
        _, session = _httpd_session("once", _benign_payloads(1))
        session.run()
        with pytest.raises(RuntimeError, match="already completed"):
            session.run()

    def test_sessions_sharing_a_kernel_meter_only_their_own_ticks(self):
        """virtual_elapsed counts ticks consumed inside the session's own
        rounds, so co-scheduled sessions on one kernel never double-count."""

        def factory(context):
            def program():
                for _ in range(5):
                    yield from context.libc.getpid()
                yield from context.libc.exit(0)

            return program()

        kernel = build_standard_host()
        clock_before = kernel.clock
        sessions = [
            NVariantSession(kernel, factory, [], name=f"shared-{i}") for i in range(2)
        ]
        result = MultiSessionEngine(sessions).run()
        consumed = kernel.clock - clock_before
        assert result.virtual_elapsed_sequential == consumed
        assert all(s.virtual_elapsed > 0 for s in result.jobs)

    def test_duplicate_session_names_rejected(self):
        _, a = _httpd_session("dup", _benign_payloads(1))
        _, b = _httpd_session("dup", _benign_payloads(1))
        engine = MultiSessionEngine([a])
        with pytest.raises(ValueError):
            engine.add_session(b)

    def test_empty_engine_returns_empty_result(self):
        result = MultiSessionEngine().run()
        assert result.jobs == [] and result.total_alarms == 0

    def test_drive_engine_scales_throughput(self):
        from repro.api.spec import ADDRESS_UID_SPEC, FleetSpec, WorkloadSpec

        single = drive_engine(
            FleetSpec(system=ADDRESS_UID_SPEC, num_sessions=1,
                      workload=WorkloadSpec(total_requests=6))
        )
        fleet = drive_engine(
            FleetSpec(system=ADDRESS_UID_SPEC, num_sessions=4,
                      workload=WorkloadSpec(total_requests=24))
        )
        assert single.completed_ok and fleet.completed_ok
        assert fleet.speedup() > 3.0


class TestFaultContainment:
    def test_crashing_variant_halts_only_its_own_session(self):
        _, bad = _httpd_session("bad", _benign_payloads(2), crash_variant=1)
        good = [_httpd_session(f"ok{i}", _benign_payloads(2))[1] for i in range(3)]
        result = MultiSessionEngine([bad] + good).run()

        crashed = result.job("bad")
        assert crashed.state is SessionState.HALTED and not crashed.truncated
        (alarm,) = crashed.value.alarms
        assert alarm.alarm_type is AlarmType.VARIANT_FAULT
        assert alarm.faulting_variant == 1
        assert "ValueError" in alarm.description
        assert [result.job(f"ok{i}").state for i in range(3)] == [SessionState.COMPLETED] * 3
        assert result.total_alarms == 1

    def test_framework_exception_propagates_naming_the_session(self):
        _, broken = _httpd_session("broken", _benign_payloads(1))
        _, bystander = _httpd_session("bystander", _benign_payloads(1))

        def failing_check(requests, *, lockstep_index):
            raise KeyError("comparator bug")

        broken.comparator.check_round = failing_check
        engine = MultiSessionEngine([bystander, broken], name="fleet")
        with pytest.raises(KeyError, match="comparator bug") as caught:
            engine.run()
        assert any("'broken'" in note and "'fleet'" in note for note in caught.value.__notes__)


#: Session kinds the engine-loop property mixes.
SESSION_KINDS = ("benign", "attack", "crash")


def _kind_session(kind, name, requests):
    if kind == "attack":
        return _httpd_session(name, _benign_payloads(requests - 1) + [uid_overwrite_payload(0)])[1]
    return _httpd_session(
        name, _benign_payloads(requests), crash_variant=1 if kind == "crash" else None
    )[1]


def _signature(session):
    alarm_types = [alarm.alarm_type for alarm in session.monitor.alarms]
    return session.state, session.rounds, alarm_types, session.virtual_elapsed


class TestEngineLoopProperty:
    """Fleet or campaign, one loop: scheduling never changes a session's run."""

    @given(
        mix=st.lists(
            st.tuples(st.sampled_from(SESSION_KINDS), st.integers(min_value=1, max_value=3)),
            min_size=1,
            max_size=4,
        ),
        parallelism=st.integers(min_value=1, max_value=4),
        rounds_per_turn=st.integers(min_value=1, max_value=6),
        halt_policy=st.sampled_from(list(HaltPolicy)),
    )
    @settings(max_examples=15, deadline=None)
    def test_interleaving_matches_solo_runs(self, mix, parallelism, rounds_per_turn, halt_policy):
        solo = []
        for index, (kind, requests) in enumerate(mix):
            session = _kind_session(kind, f"solo-{index}", requests)
            session.run()
            solo.append(_signature(session))

        fleet = MultiSessionEngine(
            [_kind_session(kind, f"s{i}", n) for i, (kind, n) in enumerate(mix)],
            halt_policy=halt_policy,
        ).run()
        campaign = MultiSessionEngine(
            [
                CampaignJob(
                    f"job-{i}",
                    start=lambda kind=kind, i=i, n=n: _kind_session(kind, f"job-{i}", n),
                    finish=_signature,
                )
                for i, (kind, n) in enumerate(mix)
            ],
            parallelism=parallelism,
            rounds_per_turn=rounds_per_turn,
            halt_policy=halt_policy,
        ).run()

        for result in (fleet, campaign):
            finished = len(result.completed_jobs)
            assert finished + len(result.truncated_jobs) + len(result.skipped_jobs) == len(mix)
            if halt_policy is HaltPolicy.PER_SESSION:
                assert finished == len(mix)
        for job in fleet.completed_jobs:
            alarm_types = [alarm.alarm_type for alarm in job.value.alarms]
            assert (job.state, job.rounds, alarm_types, job.virtual_elapsed) == solo[job.index]
        for job in campaign.completed_jobs:
            assert job.value == solo[job.index]
