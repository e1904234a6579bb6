"""Checkpoint/restore/migration: continuation must be indistinguishable.

The load subsystem's strongest claim is that a checkpoint is *complete*: a
restored session is byte-for-byte the session it replaced -- same keyed
secrets, same responses to the queued conversations, same detection
verdicts for whatever attack bytes were waiting.  These tests pin the
serialization format (JSON round trip, version/key validation), the secret
hand-off (restore installs the recorded secrets before variant spawn), the
engine-level ``migrate`` hand-off through admission-controlled intake, and
-- as hypothesis properties -- that neither checkpoint/restore nor a
non-shedding admission policy ever changes a workload's observable outcome.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.spec import keyed_uid_spec, uid_orbit_spec
from repro.attacks.payloads import benign_request, uid_overwrite_payload
from repro.engine import MultiSessionEngine, SessionState
from repro.load import (
    BoundedQueuePolicy,
    LoadError,
    SessionCheckpoint,
    build_serving_session,
    checkpoint,
    keyed_secrets,
    migrate,
    restore,
    run_loadtest,
)

HTTP_PORT = 80


def _serving_session(spec, payloads, *, name="origin"):
    """A fresh serving session with *payloads* queued on its listener."""
    session = build_serving_session(spec, "httpd", name=name, max_requests=len(payloads))
    for index, payload in enumerate(payloads):
        session.kernel.client_connect(HTTP_PORT, payload, client=f"c{index}")
    return session


def _drain(session):
    """Run a session to its terminal state; return its observable outcome."""
    while not session.done:
        session.step()
    result = session.result()
    responses = [
        (conn.client, conn.response_bytes())
        for conn in session.kernel.network.connections
    ]
    alarm_signature = [(a.alarm_type, a.syscall) for a in result.alarms]
    return {
        "state": session.state,
        "alarms": alarm_signature,
        "responses": sorted(responses),
    }


class TestCheckpointFormat:
    def test_round_trips_through_json(self):
        session = _serving_session(
            keyed_uid_spec(2, key_bits=8), [benign_request(), benign_request("/news.html")]
        )
        cp = checkpoint(session)
        wire = json.dumps(cp.to_dict(), sort_keys=True)
        revived = SessionCheckpoint.from_dict(json.loads(wire))
        assert revived == cp
        assert revived.secrets == keyed_secrets(session)
        assert [p.data for p in revived.pending] == [
            benign_request(),
            benign_request("/news.html"),
        ]

    def test_unknown_keys_rejected(self):
        session = _serving_session(uid_orbit_spec(2), [benign_request()])
        data = checkpoint(session).to_dict()
        data["paused_registers"] = []
        with pytest.raises(LoadError, match="unknown checkpoint keys"):
            SessionCheckpoint.from_dict(data)

    def test_future_version_rejected(self):
        session = _serving_session(uid_orbit_spec(2), [benign_request()])
        data = checkpoint(session).to_dict()
        data["version"] = 2
        with pytest.raises(LoadError, match="unsupported checkpoint version"):
            SessionCheckpoint.from_dict(data)

    def test_unstamped_session_cannot_checkpoint(self):
        from repro.apps.httpd.server import make_httpd_factory
        from repro.core.variations.uid import UIDVariation
        from repro.engine import NVariantSession
        from repro.kernel.host import build_standard_host

        bare = NVariantSession(
            build_standard_host(), make_httpd_factory(transformed=True), [UIDVariation()]
        )
        with pytest.raises(LoadError, match="no construction recipe"):
            checkpoint(bare)

    def test_mid_burst_checkpoint_refused(self):
        session = _serving_session(uid_orbit_spec(2), [benign_request()])
        session.step()
        assert session.state is SessionState.RUNNING
        with pytest.raises(LoadError, match="mid-burst"):
            checkpoint(session)

    def test_secret_position_out_of_range_rejected(self):
        session = _serving_session(keyed_uid_spec(2, key_bits=8), [benign_request()])
        cp = checkpoint(session)
        corrupt = SessionCheckpoint.from_dict(
            {**cp.to_dict(), "secrets": [{"position": 5, "values": [1, 2]}]}
        )
        with pytest.raises(LoadError, match="position 5"):
            restore(corrupt)

    def test_corrupt_secret_values_rejected(self):
        session = _serving_session(keyed_uid_spec(2, key_bits=8), [benign_request()])
        cp = checkpoint(session)
        corrupt = SessionCheckpoint.from_dict(
            {**cp.to_dict(), "secrets": [{"position": 0, "values": [3]}]}
        )
        with pytest.raises(Exception, match="secret|values|expects"):
            restore(corrupt)


class TestRestoreFidelity:
    def test_restored_session_preserves_keyed_secrets(self):
        session = _serving_session(keyed_uid_spec(2, key_bits=8), [benign_request()])
        restored = restore(checkpoint(session), name="moved")
        assert keyed_secrets(restored) == keyed_secrets(session)
        assert restored.name == "moved"
        assert restored.spec == session.spec
        assert restored.serving == session.serving

    def test_restored_session_serves_identical_outcome(self):
        payloads = [benign_request(), benign_request("/news.html")]
        session = _serving_session(keyed_uid_spec(2, key_bits=6), payloads)
        cp = checkpoint(session)
        original = _drain(session)
        moved = _drain(restore(cp))
        assert moved == original
        assert original["state"] is SessionState.COMPLETED
        assert original["alarms"] == []

    def test_restored_session_reaches_same_detection_verdict(self):
        payloads = [benign_request(), uid_overwrite_payload(0)]
        session = _serving_session(keyed_uid_spec(2, key_bits=8), payloads)
        cp = checkpoint(session)
        original = _drain(session)
        moved = _drain(restore(cp))
        assert original["state"] is SessionState.HALTED
        assert moved["state"] is SessionState.HALTED
        assert moved["alarms"] == original["alarms"]


class TestEngineMigration:
    def test_migrate_hands_session_to_target_engine(self):
        session = _serving_session(keyed_uid_spec(2, key_bits=8), [benign_request()])
        secrets = keyed_secrets(session)
        target = MultiSessionEngine([], name="target")
        restored = migrate(session, target, name="moved")
        assert [job.name for job in target.jobs] == ["moved"]
        assert keyed_secrets(restored) == secrets
        target.run()
        assert restored.state is SessionState.COMPLETED
        assert restored.monitor.alarms == []

    def test_migrate_into_full_engine_is_loud(self):
        policy = BoundedQueuePolicy(capacity=1, drop="newest")
        target = MultiSessionEngine([], name="full", intake=policy)
        assert target.offer(_serving_session(uid_orbit_spec(2), [benign_request()], name="tenant"))
        session = _serving_session(uid_orbit_spec(2), [benign_request()], name="migrant")
        with pytest.raises(LoadError, match="shed migrated session"):
            migrate(session, target)


PATHS = ("/index.html", "/news.html", "/docs/faq.html", "/products.html")


class TestContinuationProperties:
    @given(
        path_picks=st.lists(st.sampled_from(PATHS), min_size=1, max_size=4),
        key_bits=st.integers(4, 8),
        attack=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_restore_never_changes_the_outcome(self, path_picks, key_bits, attack):
        payloads = [benign_request(path) for path in path_picks]
        if attack:
            payloads.append(uid_overwrite_payload(0))
        session = _serving_session(keyed_uid_spec(2, key_bits=key_bits), payloads)
        cp = checkpoint(session)
        assert _drain(restore(cp)) == _drain(session)

    @given(
        seed=st.integers(0, 2**31),
        capacity=st.integers(24, 64),
        attack=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_non_shedding_admission_never_changes_detection(self, seed, capacity, attack):
        # With capacity comfortably above the workload, bounded-queue
        # admission must be observationally identical to accept-all.
        attacks = ("uid-overwrite",) if attack else ()
        kwargs = dict(requests=6, rate=15.0, seed=seed, attacks=attacks)
        spec = uid_orbit_spec(2)
        control = run_loadtest(spec, **kwargs)
        bounded = run_loadtest(
            spec,
            admission="bounded-queue",
            admission_params={"capacity": capacity, "drop": "oldest"},
            **kwargs,
        )
        assert bounded.shed == 0
        assert bounded.response_digest == control.response_digest
        assert bounded.attack_outcomes == control.attack_outcomes
        assert bounded.alarms == control.alarms
        assert bounded.completed == control.completed


class TestBackendParity:
    def test_process_backend_reproduces_virtual_cell(self):
        from repro.engine.procpool import ProcessJob, run_process_jobs
        from repro.load import LOADTEST_RUNNER, run_loadtest_payload

        payload = {
            "spec": uid_orbit_spec(2).to_dict(),
            "arrival": "bursty",
            "rate": 30.0,
            "requests": 8,
            "admission": "token-bucket",
            "admission_params": {"rate": 25.0, "burst": 2.0},
            "seed": 424242,
        }
        local = run_loadtest_payload(payload)["value"]
        campaign = run_process_jobs(
            [ProcessJob(name="cell", runner=LOADTEST_RUNNER, payload=payload)], workers=2
        )
        assert campaign.jobs[0].value == local
