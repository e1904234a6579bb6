"""The shared serving drivers, run over both catalog apps.

One set of drivers (:mod:`repro.apps.clients.webbench`) serves every client
workload; ftpbench contributes only the FTP wire format.  Each case runs per
app: every request completes with no alarm, and a job interleaved with
others by the engine measures exactly what the same job measures alone.
"""

import dataclasses

import pytest

from repro.api.spec import ADDRESS_UID_SPEC, UID_DIVERSITY_SPEC, FleetSpec, WorkloadSpec
from repro.apps.clients import ftpbench, webbench

#: app -> (client module, a small workload)
CLIENTS = {
    "httpd": (webbench, webbench.WebBenchWorkload(total_requests=6)),
    "ftpd": (ftpbench, ftpbench.FtpBenchWorkload(total_requests=6)),
}
APPS = sorted(CLIENTS)


def _workload(app, requests=6):
    return dataclasses.replace(CLIENTS[app][1], total_requests=requests)


def _serves_everything(measurement, requests):
    assert measurement.requests_sent == requests
    assert measurement.requests_completed == requests
    assert measurement.alarms == 0
    assert measurement.completed_ok


def test_ftpbench_reexports_the_shared_drivers():
    for name in ("drive_nvariant", "drive_nvariant_many", "drive_engine"):
        assert getattr(ftpbench, name) is getattr(webbench, name)


@pytest.mark.parametrize("app", APPS)
def test_standalone(app):
    module, workload = CLIENTS[app]
    measurement = module.drive_standalone(workload)
    _serves_everything(measurement, 6)
    assert measurement.num_variants == 1
    assert measurement.monitor_checks == 0


@pytest.mark.parametrize("app", APPS)
def test_nvariant(app):
    measurement, result = webbench.drive_nvariant(_workload(app), ADDRESS_UID_SPEC)
    _serves_everything(measurement, 6)
    assert result.completed_normally
    assert measurement.configuration == ADDRESS_UID_SPEC.name
    assert measurement.num_variants == 2
    assert measurement.monitor_checks > 0


@pytest.mark.parametrize("app", APPS)
def test_many_matches_each_job_alone(app):
    jobs = [(_workload(app), UID_DIVERSITY_SPEC), (_workload(app, 3), ADDRESS_UID_SPEC)]
    together = webbench.drive_nvariant_many(jobs)
    assert len(together) == len(jobs)
    for (workload, spec), (measurement, result) in zip(jobs, together):
        _serves_everything(measurement, workload.total_requests)
        alone, alone_result = webbench.drive_nvariant(workload, spec)
        assert measurement == alone
        assert result.lockstep_rounds == alone_result.lockstep_rounds


@pytest.mark.parametrize("app", APPS)
def test_engine_matches_each_shard_alone(app):
    workload = _workload(app, 7)
    fleet = FleetSpec(
        system=ADDRESS_UID_SPEC, num_sessions=3, workload=WorkloadSpec(total_requests=7)
    )
    measured = webbench.drive_engine(fleet, workload=workload)
    assert measured.requests_sent == 7
    assert measured.requests_completed == 7
    assert measured.completed_ok

    alone = [webbench.drive_nvariant(shard, fleet.system) for shard in workload.split(3)]
    statuses: dict[int, int] = {}
    for measurement, _ in alone:
        _serves_everything(measurement, measurement.requests_sent)
        for status, count in measurement.status_counts.items():
            statuses[status] = statuses.get(status, 0) + count
    assert measured.status_counts == statuses
    assert [job.rounds for job in measured.engine_result.jobs] == [
        result.lockstep_rounds for _, result in alone
    ]


@pytest.mark.parametrize("app", APPS)
def test_split_rejects_idle_shards(app):
    workload = _workload(app, 2)
    assert [shard.total_requests for shard in workload.split(2)] == [1, 1]
    with pytest.raises(ValueError, match="shards"):
        workload.split(3)
    with pytest.raises(ValueError, match="shards"):
        workload.split(0)
    # The drive_engine override is checked too: the fleet spec only sees its
    # own workload shape, not the override's request count.
    fleet = FleetSpec(num_sessions=3, workload=WorkloadSpec(total_requests=3))
    with pytest.raises(ValueError, match="shards"):
        webbench.drive_engine(fleet, workload=workload)
