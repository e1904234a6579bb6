"""Run corpus records through the campaign machinery, on either backend.

A record is pure data, so the same record dict drives both tiers: the
virtual backend rebuilds the attack cell in process and interleaves it as a
resumable session under the campaign scheduler; the process backend ships
the dict to a pre-forked worker, which rebuilds the identical cell there
(:data:`CORPUS_RUNNER` is the worker-side entry point).  Results come back
in submission order on both paths, and a seeded corpus produces
byte-identical outcome dicts either way -- the cross-backend scorecard
equality the ``corpus`` experiment claims.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.api.campaign import prepare_attack
from repro.api.spec import SystemSpec
from repro.attacks.memory_attacks import AddressInjectionAttack
from repro.attacks.mutators import PartialPointerAttack, annotation_overflow_payload
from repro.attacks.outcomes import AttackOutcome, PreparedAttack
from repro.attacks.payloads import uid_overwrite_payload
from repro.attacks.uid_attacks import UIDAttack
from repro.corpus.records import CorpusError, CorpusRecord
from repro.engine.scheduler import CampaignJob, run_jobs
from repro.engine.procpool import ProcessJob, ProcessWorkerPool, run_process_jobs
from repro.memory.corruption import CorruptionSpec

#: Worker-side entry point for the process backend.
CORPUS_RUNNER = "repro.corpus.runner:run_corpus_payload"


def build_attack(data: Mapping[str, Any]):
    """Rebuild the real attack object from a record's declarative dict."""
    kind = data.get("kind")
    name = str(data.get("name") or kind)
    description = str(data.get("description", ""))
    if kind == "uid-overwrite":
        return UIDAttack(
            name=name,
            description=description,
            payload=uid_overwrite_payload(
                int(data["uid"]), partial_bytes=int(data.get("partial_bytes", 4))
            ),
        )
    if kind == "annotation":
        return UIDAttack(
            name=name,
            description=description,
            payload=annotation_overflow_payload(
                int(data["length"]), path=str(data["path"])
            ),
        )
    if kind == "uid-corruption":
        return UIDAttack(
            name=name,
            description=description,
            corruption=CorruptionSpec(
                kind=str(data["corruption_kind"]),
                payload=int(data.get("payload", 0)),
                byte_count=int(data.get("byte_count", 4)),
            ),
        )
    if kind == "address-injection":
        return AddressInjectionAttack(
            name=name, description=description, address=int(data["address"])
        )
    if kind == "pointer-partial":
        return PartialPointerAttack(
            name=name,
            description=description,
            address=int(data["value"]),
            partial_bytes=int(data["partial_bytes"]),
        )
    raise CorpusError(f"unknown attack kind {kind!r} in record attack {data!r}")


def prepare_record(record: CorpusRecord) -> PreparedAttack:
    """Build the runnable attack-x-configuration cell a record describes."""
    return prepare_attack(build_attack(record.attack), SystemSpec.from_dict(dict(record.spec)))


def outcome_to_dict(outcome: AttackOutcome) -> dict[str, Any]:
    """A picklable, comparison-stable rendering of an attack outcome."""
    return {
        "attack": outcome.attack,
        "configuration": outcome.configuration,
        "kind": outcome.kind.value,
        "goal_reached": outcome.goal_reached,
        "detected": outcome.detected,
        "detail": outcome.detail,
    }


def run_corpus_payload(payload: dict) -> dict:
    """Worker-side record runner (the process backend's entry point)."""
    record = CorpusRecord.from_dict(payload)
    cell = prepare_record(record)
    session = cell.start()
    while not session.done:
        session.step()
    # The procpool result contract (RESULT_KEYS): scheduler accounting at the
    # top level, the cell's outcome dict under "value".
    return {
        "state": session.state.value,
        "rounds": session.rounds,
        "virtual_elapsed": session.virtual_elapsed,
        "value": outcome_to_dict(cell.finish(session)),
    }


def run_corpus_records(
    records: Sequence[CorpusRecord],
    *,
    backend: str = "virtual",
    workers: int = 1,
    rounds_per_turn: int = 8,
    pool: Optional[ProcessWorkerPool] = None,
) -> list[dict[str, Any]]:
    """Run every record; returns outcome dicts in record order."""
    if backend == "process":
        jobs = [
            ProcessJob(name=record.record_id, runner=CORPUS_RUNNER, payload=record.to_dict())
            for record in records
        ]
        execution = run_process_jobs(
            jobs,
            workers=workers,
            rounds_per_turn=rounds_per_turn,
            pool=pool,
        )
    elif backend == "virtual":
        jobs = []
        for record in records:
            cell = prepare_record(record)
            jobs.append(
                CampaignJob(
                    name=record.record_id,
                    start=cell.start,
                    finish=(lambda finish: lambda session: outcome_to_dict(finish(session)))(
                        cell.finish
                    ),
                )
            )
        execution = run_jobs(
            jobs,
            parallelism=workers,
            rounds_per_turn=rounds_per_turn,
        )
    else:
        raise ValueError(f"unknown backend {backend!r} (want 'virtual' or 'process')")
    return [job.value for job in execution.jobs]
