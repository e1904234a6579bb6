"""Attack outcome classification shared by every attack driver."""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import SystemSpec
    from repro.core.nvariant import NVariantResult
    from repro.engine.session import NVariantSession


class OutcomeKind(enum.Enum):
    """How an attack attempt ended."""

    #: The attacker reached their goal and no alarm was raised.
    UNDETECTED_COMPROMISE = "undetected-compromise"
    #: The monitor raised an alarm (the attack may or may not have progressed
    #: before being stopped; with the halt policy it never reaches its goal).
    DETECTED = "detected"
    #: The attack neither reached its goal nor triggered an alarm (e.g. the
    #: corruption was absorbed harmlessly or the payload had no effect).
    NO_EFFECT = "no-effect"
    #: The attack crashed the (single-variant) service without achieving its
    #: goal -- an availability loss but not a compromise.
    CRASHED = "crashed"


@dataclasses.dataclass(frozen=True)
class AttackOutcome:
    """Result of one attack attempt against one configuration."""

    attack: str
    configuration: str
    kind: OutcomeKind
    goal_reached: bool
    detected: bool
    detail: str = ""

    @property
    def is_security_failure(self) -> bool:
        """True when the defence failed: compromise without detection."""
        return self.kind is OutcomeKind.UNDETECTED_COMPROMISE

    def describe(self) -> str:
        """One-line rendering for reports."""
        return (
            f"{self.attack:<32} vs {self.configuration:<28} -> {self.kind.value}"
            + (f" ({self.detail})" if self.detail else "")
        )


@dataclasses.dataclass
class PreparedAttack:
    """One attack-x-configuration cell, ready to schedule.

    ``start`` lazily builds the cell's private simulated host and returns the
    resumable lockstep session; ``finish`` inspects the terminal session (and
    whatever ``start`` captured, e.g. the kernel's connection log) and
    produces the cell's :class:`AttackOutcome`.  Driving the session serially
    or interleaved under the campaign scheduler yields identical outcomes --
    the cell owns every bit of state it touches.
    """

    attack: str
    configuration: str
    start: Callable[[], "NVariantSession"]
    finish: Callable[["NVariantSession"], AttackOutcome]

    @property
    def name(self) -> str:
        """The cell's display name in campaign schedules."""
        return f"{self.attack}@{self.configuration}"

    def run(self) -> AttackOutcome:
        """Run this one cell to completion (the serial path)."""
        session = self.start()
        while not session.done:
            session.step()
        return self.finish(session)


def classify(*, goal_reached: bool, detected: bool, crashed: bool = False) -> OutcomeKind:
    """Map raw observations onto an :class:`OutcomeKind`."""
    if detected:
        return OutcomeKind.DETECTED
    if goal_reached:
        return OutcomeKind.UNDETECTED_COMPROMISE
    if crashed:
        return OutcomeKind.CRASHED
    return OutcomeKind.NO_EFFECT


def judge(
    attack: str,
    spec: "SystemSpec",
    result: "NVariantResult",
    *,
    goal_reached: bool,
    detail: str,
) -> AttackOutcome:
    """Judge one finished attack cell against the system it ran on.

    Only a redundant system detects.  At N=1 a trapping variant still
    records a ``VARIANT_FAULT`` alarm, but with no sibling to compare
    against that is the undefended service crashing, not the monitor
    catching the attack.  *detail* describes an outcome with no alarm to
    report.
    """
    detected = spec.redundant and result.attack_detected
    crashed = not spec.redundant and not all(v.exited_normally for v in result.variants)
    return AttackOutcome(
        attack=attack,
        configuration=spec.name,
        kind=classify(goal_reached=goal_reached, detected=detected, crashed=crashed),
        goal_reached=goal_reached,
        detected=detected,
        detail=result.first_alarm().describe() if detected else detail,
    )
