"""The N-variant monitor.

The monitor observes every variant at system-call granularity (Section 3.1)
and raises an alarm whenever the variants are not in equivalent states:

* different system calls at the same lockstep point,
* the same call with non-equivalent arguments (compared *after* each
  variant's canonicalization function has been applied, so representation
  differences introduced by the reexpression functions do not trigger false
  alarms),
* a detection call (Table 2) observing divergent UID data or divergent
  control flow,
* a variant raising a hardware-style fault (segmentation fault, illegal
  instruction), or
* one variant terminating while another keeps running.

The monitor is deliberately passive: it classifies and records divergences;
the lockstep engine decides what to do about them (the default policy halts
the system, which is the paper's behaviour).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import NamedTuple, Optional, Sequence

from repro.core.alarm import Alarm, AlarmType
from repro.interpose import CLASSIC_TABLE, InterpositionTable
from repro.kernel.errors import VariantFault
from repro.kernel.syscalls import Syscall, SyscallPlans, SyscallRequest

# Re-exported for backwards compatibility: the classification families now
# live on the interposition table, and these module names are views of the
# classic table's derived sets (identical by construction).
DETECTION_SYSCALLS = CLASSIC_TABLE.detection_syscalls
UID_COMPARISON_SYSCALLS = CLASSIC_TABLE.uid_comparison_syscalls
UID_PARAMETER_SYSCALLS = CLASSIC_TABLE.uid_parameter_syscalls


@dataclasses.dataclass
class MonitorStats:
    """Counters describing how much checking the monitor performed.

    ``alarm_breakdown`` maps syscall name (or alarm-type value for alarms
    without a syscall, e.g. variant faults) to the number of alarms raised
    there -- the per-syscall divergence breakdown experiment telemetry
    surfaces.
    """

    lockstep_points: int = 0
    syscalls_compared: int = 0
    detection_calls_checked: int = 0
    alarms_raised: int = 0
    fast_path_rounds: int = 0
    alarm_breakdown: dict[str, int] = dataclasses.field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter (fresh accounting for a new run).

        Structural on purpose: a counter added to the dataclass can never be
        forgotten here and survive a reset.  Fields with a default factory
        (the breakdown dict) reset to a fresh instance of it.
        """
        for field in dataclasses.fields(self):
            if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                setattr(self, field.name, field.default_factory())  # type: ignore[misc]
            else:
                setattr(self, field.name, 0)


class Monitor:
    """Compares canonicalized variant behaviour and records alarms.

    Classification families (detection calls, UID parameters and
    comparisons, output-tagged calls) come from the active
    :class:`~repro.interpose.InterpositionTable`; the default is the
    ``"classic"`` table, which reproduces the historical frozen-set
    behaviour exactly.
    """

    def __init__(self, table: InterpositionTable | None = None) -> None:
        self.table = table if table is not None else CLASSIC_TABLE
        self.alarms: list[Alarm] = []
        self.stats = MonitorStats()

    def reset(self) -> None:
        """Forget recorded alarms and zero the stats counters."""
        self.alarms.clear()
        self.stats.reset()

    # -- outcome ------------------------------------------------------------

    @property
    def attack_detected(self) -> bool:
        """True once any alarm has been raised."""
        return bool(self.alarms)

    def first_alarm(self) -> Optional[Alarm]:
        """The first alarm raised, if any."""
        return self.alarms[0] if self.alarms else None

    def _record(self, alarm: Alarm) -> Alarm:
        self.alarms.append(alarm)
        self.stats.alarms_raised += 1
        key = alarm.syscall if alarm.syscall else alarm.alarm_type.value
        breakdown = self.stats.alarm_breakdown
        breakdown[key] = breakdown.get(key, 0) + 1
        return alarm

    # -- syscall comparison ------------------------------------------------------

    def check_syscalls(
        self,
        canonical_requests: Sequence[SyscallRequest],
        *,
        lockstep_index: int | None = None,
    ) -> Optional[Alarm]:
        """Compare one lockstep round of canonicalized requests.

        Returns the alarm raised, or ``None`` when the variants are
        equivalent at this point.
        """
        self.stats.lockstep_points += 1
        self.stats.syscalls_compared += len(canonical_requests)

        names = {request.name for request in canonical_requests}
        if len(names) > 1:
            return self._record(
                Alarm(
                    alarm_type=AlarmType.SYSCALL_MISMATCH,
                    description="variants issued different system calls",
                    syscall="/".join(sorted(name.value for name in names)),
                    variant_values=tuple(r.describe() for r in canonical_requests),
                    lockstep_index=lockstep_index,
                )
            )

        name = canonical_requests[0].name
        if name in self.table.detection_syscalls:
            self.stats.detection_calls_checked += 1

        args = [request.args for request in canonical_requests]
        if all(arg == args[0] for arg in args[1:]):
            return None

        alarm_type = self._classify_argument_mismatch(name)
        return self._record(
            Alarm(
                alarm_type=alarm_type,
                description=self._mismatch_description(name),
                syscall=name.value,
                variant_values=tuple(args),
                lockstep_index=lockstep_index,
            )
        )

    def _classify_argument_mismatch(self, name: Syscall) -> AlarmType:
        if name is Syscall.COND_CHK:
            return AlarmType.CONTROL_FLOW_DIVERGENCE
        if name is Syscall.UID_VALUE or name in self.table.uid_comparison_syscalls:
            return AlarmType.UID_DIVERGENCE
        if name in self.table.uid_parameter_syscalls:
            return AlarmType.UID_DIVERGENCE
        if name in self.table.output_syscalls:
            return AlarmType.OUTPUT_MISMATCH
        return AlarmType.ARGUMENT_MISMATCH

    def _mismatch_description(self, name: Syscall) -> str:
        if name is Syscall.COND_CHK:
            return "variants evaluated a UID-dependent condition differently"
        if name is Syscall.UID_VALUE or name in self.table.uid_comparison_syscalls:
            return "variants observed non-equivalent UID values"
        if name in self.table.uid_parameter_syscalls:
            return "variants passed non-equivalent UIDs to a credential call"
        if name in self.table.output_syscalls:
            return "variants attempted divergent externally-visible behaviour"
        return "variants passed non-equivalent arguments"

    # -- faults and lifecycle -------------------------------------------------------

    def report_fault(
        self,
        variant_index: int,
        fault: VariantFault,
        *,
        lockstep_index: int | None = None,
    ) -> Alarm:
        """Record that a variant trapped (segfault, illegal instruction, kill)."""
        return self._record(
            Alarm(
                alarm_type=AlarmType.VARIANT_FAULT,
                description=f"variant {variant_index} faulted: {fault.kind}: {fault.message}",
                faulting_variant=variant_index,
                lockstep_index=lockstep_index,
            )
        )

    def report_lifecycle_divergence(
        self,
        description: str,
        *,
        lockstep_index: int | None = None,
        variant_values: tuple = (),
    ) -> Alarm:
        """Record that variants disagreed about continuing vs terminating."""
        return self._record(
            Alarm(
                alarm_type=AlarmType.LIFECYCLE_DIVERGENCE,
                description=description,
                variant_values=variant_values,
                lockstep_index=lockstep_index,
            )
        )


class _RoundPlan(NamedTuple):
    """What the comparator does with a round of one syscall."""

    #: No variation canonicalizes the call: equal raw requests are equivalent.
    fast_path: bool
    #: No variation rewrites the call on its way to the kernel.
    skip_transform: bool
    #: The call is a detection call (Table 2), counted when checked.
    detection: bool


def _round_plan(
    canonical: Optional[frozenset[Syscall]],
    transform: Optional[frozenset[Syscall]],
    detection: frozenset[Syscall],
    name: Syscall,
) -> _RoundPlan:
    return _RoundPlan(
        fast_path=canonical is not None and name not in canonical,
        skip_transform=transform is not None and name not in transform,
        detection=name in detection,
    )


class SyscallComparator:
    """Per-session fast path for the lockstep point's comparison work.

    Every lockstep round the engine must (a) canonicalize each variant's
    request so representation differences don't trigger false alarms and
    (b) inverse-reexpress each request's diversified arguments before the
    kernel sees them.  Both rewrites touch only a small, statically known set
    of system calls (for the UID variation: the setuid family, the cc_*
    comparisons, and ``uid_value``), while the bulk of a web workload is
    reads, writes, opens and socket calls that no variation rewrites.

    The comparator reads the stack-wide unions of the variations' declared
    footprints (:attr:`~repro.core.variations.base.Variation.canonical_syscalls`
    and :attr:`~repro.core.variations.base.Variation.transform_syscalls`) into
    one plan per syscall, filled on the round that first issues it, so each
    round costs one lookup: calls outside the canonicalization footprint skip
    the hook walk and fall into one batched tuple comparison, and calls
    outside the transformation footprint skip the request rewrite.  The
    third footprint, :attr:`~repro.core.variations.base.Variation.result_syscalls`,
    is the session's to apply.  A variation that cannot declare a footprint
    (``None``) disables the corresponding skip, so correctness never depends
    on the declaration being present -- only speed does.
    """

    def __init__(
        self,
        variations: "VariationStack",
        monitor: Monitor,
        table: InterpositionTable | None = None,
    ):
        self.variations = variations
        self.monitor = monitor
        self.table = table if table is not None else monitor.table
        self._plans: SyscallPlans[_RoundPlan] = SyscallPlans(
            functools.partial(
                _round_plan,
                variations.canonical_syscalls(),
                variations.transform_syscalls(),
                self.table.detection_syscalls,
            )
        )

    def check_round(
        self,
        requests: Sequence[SyscallRequest],
        *,
        lockstep_index: int | None = None,
    ) -> Optional[Alarm]:
        """Canonicalize-and-compare one lockstep round of raw requests.

        Equivalent to canonicalizing every request through the variation
        stack and calling :meth:`Monitor.check_syscalls`, but skips the
        canonicalization walk for syscalls no variation rewrites.
        """
        first = requests[0]
        name = first.name
        plan = self._plans[name]
        if plan.fast_path:
            args = first.args
            for other in requests[1:]:
                if other.name is not name or other.args != args:
                    # A divergence (or mixed names): take the slow path so the
                    # alarm carries the same classification and rendering.
                    break
            else:
                stats = self.monitor.stats
                stats.lockstep_points += 1
                stats.syscalls_compared += len(requests)
                stats.fast_path_rounds += 1
                if plan.detection:
                    stats.detection_calls_checked += 1
                return None
        canonical = [
            self.variations.canonicalize_request(index, request)
            for index, request in enumerate(requests)
        ]
        return self.monitor.check_syscalls(canonical, lockstep_index=lockstep_index)

    def transform_round(self, requests: Sequence[SyscallRequest]) -> list[SyscallRequest]:
        """Apply each variant's outgoing request transformation for one round.

        Every request's own name is checked (not just variant 0's): a
        mixed-name round executed under ``halt_on_alarm=False`` must still
        decode the UID-carrying calls of the variants that issued them.
        """
        plans = self._plans
        if all(plans[request.name].skip_transform for request in requests):
            return list(requests)
        return [
            self.variations.transform_request(index, request)
            for index, request in enumerate(requests)
        ]
