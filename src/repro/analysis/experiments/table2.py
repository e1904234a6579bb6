"""Experiment: reproduce Table 2 (detection system calls).

Regenerates the table of detection calls and exercises each of them twice in
a live 2-variant UID system: once with equivalent per-variant data (the call
must succeed silently) and once with attacker-identical data (the monitor
must raise the corresponding alarm).  This demonstrates both halves of each
call's contract rather than just printing the signatures.

All 2x8 probe systems run as sessions interleaved on one multi-session
engine (each on its own host), so the whole table costs one engine pass
instead of sixteen serial runs.
"""

from __future__ import annotations

import dataclasses

from repro.api.builders import build_session
from repro.api.experiments import ExperimentReport, ReportTable
from repro.api.spec import UID_DIVERSITY_SPEC
from repro.engine import MultiSessionEngine
from repro.core.alarm import AlarmType
from repro.core.detection_calls import TABLE2_DETECTION_CALLS, DetectionCallSpec
from repro.core.nvariant import VariantContext
from repro.kernel.host import build_standard_host
from repro.kernel.syscalls import Syscall


@dataclasses.dataclass
class DetectionCallCheck:
    """Behaviour of one detection call under benign and attack conditions."""

    spec: DetectionCallSpec
    benign_alarm: bool
    attack_alarm: bool
    attack_alarm_type: str

    @property
    def behaves_correctly(self) -> bool:
        """Silent on equivalent data, alarming on injected identical data."""
        return (not self.benign_alarm) and self.attack_alarm


@dataclasses.dataclass
class Table2Result:
    """Reproduced Table 2 plus the live behaviour checks."""

    checks: list[DetectionCallCheck]

    @property
    def all_correct(self) -> bool:
        """True when every detection call behaves as specified."""
        return all(check.behaves_correctly for check in self.checks)

    def to_report(self) -> ExperimentReport:
        """The table and behaviour summary as a shared experiment report."""
        table = ReportTable(
            title="Table 2. Detection System Calls",
            headers=("Function Signature", "Description"),
            rows=tuple(
                (check.spec.signature, check.spec.description) for check in self.checks
            ),
        )
        behaviour = ReportTable(
            title="Live behaviour in a 2-variant UID system",
            headers=("Call", "Benign data", "Injected data", "Alarm type"),
            rows=tuple(
                (
                    check.spec.syscall.value,
                    "silent" if not check.benign_alarm else "FALSE ALARM",
                    "alarm" if check.attack_alarm else "MISSED",
                    check.attack_alarm_type,
                )
                for check in self.checks
            ),
        )
        claims = {
            f"{check.spec.syscall.value} is silent on benign data and alarms on "
            "injected data": check.behaves_correctly
            for check in self.checks
        }
        return ExperimentReport(
            title="Table 2: detection system calls, exercised live",
            sections=(table, behaviour),
            claims=claims,
            result=self,
        )


def _probe_factory(syscall: Syscall, *, injected: bool):
    """Build a program that exercises one detection call once.

    With ``injected=False`` the UID operands come from the variant's codec
    (equivalent across variants); with ``injected=True`` the same concrete
    value is used in both variants, as an attacker-controlled value would be.
    """

    def factory(context: VariantContext):
        libc = context.libc
        codec = context.uid_codec

        def program():
            root = 12345 if injected else codec.constant(0)
            other = 67890 if injected else codec.constant(33)
            if syscall is Syscall.UID_VALUE:
                yield from libc.uid_value(root)
            elif syscall is Syscall.COND_CHK:
                # A UID-dependent branch decision: with injected data the two
                # variants would disagree about the comparison's outcome.
                condition = (codec.decode(root) == 0) if not injected else (context.index == 0)
                yield from libc.cond_chk(condition)
            else:
                yield from libc.syscall(syscall, root, other)
            yield from libc.exit(0)

        return program()

    return factory


def run() -> Table2Result:
    """Run the Table 2 reproduction (all probes interleaved on one engine)."""
    sessions = []
    for spec in TABLE2_DETECTION_CALLS:
        for injected in (False, True):
            sessions.append(
                build_session(
                    UID_DIVERSITY_SPEC,
                    build_standard_host(),
                    _probe_factory(spec.syscall, injected=injected),
                    name=f"table2-{spec.syscall.value}-{'attack' if injected else 'benign'}",
                )
            )
    results = iter(MultiSessionEngine(sessions, name="table2").run().values())
    checks = []
    for spec in TABLE2_DETECTION_CALLS:
        benign = next(results)
        attack = next(results)
        alarm_type = ""
        if attack.alarms:
            alarm_type = attack.first_alarm().alarm_type.value
        checks.append(
            DetectionCallCheck(
                spec=spec,
                benign_alarm=benign.attack_detected,
                attack_alarm=attack.attack_detected,
                attack_alarm_type=alarm_type or AlarmType.UID_DIVERGENCE.value,
            )
        )
    return Table2Result(checks=checks)


def experiment() -> ExperimentReport:
    """Registry entry point: run the table, return the shared report."""
    return run().to_report()
