"""The syscall-table interposition subsystem.

Monitoring policy is data: an :class:`InterpositionTable` maps every syscall
to its execution/comparison policy, ``"classic"`` reproduces the historical
frozen-set dispatch definitionally, and ``"wide"`` extends coverage to the
fork, signal and socket families.  These tests pin the registry surface and
the per-family alarm behaviour of the wide table.
"""

import pytest

from repro.core import wrappers as wrappers_module
from repro.core import monitor as monitor_module
from repro.core.alarm import AlarmType
from repro.engine.session import NVariantSession
from repro.interpose import (
    CLASSIC_TABLE,
    InterpositionEntry,
    InterpositionError,
    InterpositionTable,
    PolicyKind,
    WIDE_TABLE,
    get_table,
    table_names,
)
from repro.kernel.errors import Errno
from repro.kernel.host import build_standard_host
from repro.kernel.syscalls import (
    DETECTION_SYSCALLS,
    OUTPUT_SYSCALLS,
    Syscall,
    UID_PARAMETER_SYSCALLS,
)


class TestRegistry:
    def test_shipped_tables(self):
        assert table_names() == ["classic", "wide"]
        assert get_table("classic") is CLASSIC_TABLE
        assert get_table("wide") is WIDE_TABLE

    def test_unknown_table_names_the_registered_ones(self):
        with pytest.raises(InterpositionError) as excinfo:
            get_table("narrow")
        message = str(excinfo.value)
        assert "narrow" in message and "classic" in message and "wide" in message


class TestClassicTable:
    """The classic table must be the historical constants, definitionally."""

    def test_derived_sets_match_the_legacy_views(self):
        assert CLASSIC_TABLE.fd_syscalls == wrappers_module.FD_SYSCALLS
        assert (
            CLASSIC_TABLE.descriptor_creating_syscalls
            == wrappers_module.DESCRIPTOR_CREATING_SYSCALLS
        )
        assert CLASSIC_TABLE.detection_syscalls == DETECTION_SYSCALLS
        assert CLASSIC_TABLE.detection_syscalls == monitor_module.DETECTION_SYSCALLS
        assert CLASSIC_TABLE.uid_parameter_syscalls == UID_PARAMETER_SYSCALLS
        assert CLASSIC_TABLE.denied_syscalls == frozenset()
        assert CLASSIC_TABLE.output_syscalls == frozenset()

    def test_every_syscall_has_an_explicit_entry(self):
        assert set(CLASSIC_TABLE.entries()) == set(Syscall)

    def test_fallback_entry_is_fan_out(self):
        empty = InterpositionTable("empty", [])
        entry = empty.entry(Syscall.READ)
        assert entry.policy is PolicyKind.FAN_OUT
        assert not entry.fd_arg and not entry.creates_fd

    def test_duplicate_entries_rejected(self):
        entry = InterpositionEntry(syscall=Syscall.READ, policy=PolicyKind.REPLICATE)
        with pytest.raises(ValueError):
            InterpositionTable("dup", [entry, entry])

    def test_replaced_overrides_only_the_named_entries(self):
        derived = CLASSIC_TABLE.replaced(
            "derived",
            [InterpositionEntry(syscall=Syscall.TIME, policy=PolicyKind.DENY)],
        )
        assert derived.policy(Syscall.TIME) is PolicyKind.DENY
        assert derived.policy(Syscall.READ) is CLASSIC_TABLE.policy(Syscall.READ)
        assert derived.denied_syscalls == {Syscall.TIME}


class TestWideTable:
    def test_fork_family_is_denied(self):
        assert WIDE_TABLE.denied_syscalls == {Syscall.FORK, Syscall.WAITPID}

    def test_kill_fans_out_and_is_output_classified(self):
        entry = WIDE_TABLE.entry(Syscall.KILL)
        assert entry.policy is PolicyKind.FAN_OUT
        assert entry.output

    def test_output_family_includes_the_socket_surface(self):
        expected = OUTPUT_SYSCALLS | {Syscall.BIND, Syscall.LISTEN}
        assert WIDE_TABLE.output_syscalls == expected

    def test_everything_else_matches_classic(self):
        changed = (
            WIDE_TABLE.denied_syscalls
            | WIDE_TABLE.output_syscalls
        )
        for sc in Syscall:
            if sc in changed:
                continue
            assert WIDE_TABLE.entry(sc) == CLASSIC_TABLE.entry(sc), sc


def _run(factory, *, interposition, variations=(), kernel=None):
    kernel = kernel if kernel is not None else build_standard_host()
    system = NVariantSession(
        kernel, factory, list(variations), interposition=interposition
    )
    return kernel, system.run()


class TestWideTableEngineBehaviour:
    """Regression-pins per family: what a session actually observes."""

    def test_fork_denied_uniformly_without_entering_the_kernel(self):
        def factory(ctx):
            def program():
                forked = yield from ctx.libc.syscall(Syscall.FORK)
                yield from ctx.libc.exit(0 if forked.errno is Errno.EPERM else 1)

            return program()

        kernel, result = _run(factory, interposition="wide")
        assert result.completed_normally, result.alarms
        assert all(v.exit_code == 0 for v in result.variants)
        assert result.wrapper_stats.denied_calls == 1
        # The kernel never saw the call -- only the variants' exits.
        assert kernel.stats.syscall_breakdown.get("fork", 0) == 0

    def test_waitpid_denied_like_fork(self):
        def factory(ctx):
            def program():
                waited = yield from ctx.libc.syscall(Syscall.WAITPID, 1)
                yield from ctx.libc.exit(0 if waited.errno is Errno.EPERM else 1)

            return program()

        _, result = _run(factory, interposition="wide")
        assert result.completed_normally, result.alarms
        assert all(v.exit_code == 0 for v in result.variants)

    def test_classic_fork_still_reaches_the_kernel(self):
        """The classic table must keep the historical ENOSYS behaviour."""

        def factory(ctx):
            def program():
                forked = yield from ctx.libc.syscall(Syscall.FORK)
                yield from ctx.libc.exit(0 if forked.errno is Errno.ENOSYS else 1)

            return program()

        _, result = _run(factory, interposition="classic")
        assert result.completed_normally, result.alarms
        assert all(v.exit_code == 0 for v in result.variants)
        assert not result.attack_detected

    def test_divergent_kill_is_an_output_mismatch_under_wide(self):
        def factory(ctx):
            def program():
                yield from ctx.libc.syscall(Syscall.KILL, 1, 9 + ctx.index)
                yield from ctx.libc.exit(0)

            return program()

        _, result = _run(factory, interposition="wide")
        assert result.attack_detected
        alarm = result.first_alarm()
        assert alarm.alarm_type is AlarmType.OUTPUT_MISMATCH
        assert alarm.syscall == "kill"

    def test_divergent_kill_is_a_generic_mismatch_under_classic(self):
        def factory(ctx):
            def program():
                yield from ctx.libc.syscall(Syscall.KILL, 1, 9 + ctx.index)
                yield from ctx.libc.exit(0)

            return program()

        _, result = _run(factory, interposition="classic")
        assert result.attack_detected
        assert result.first_alarm().alarm_type is AlarmType.ARGUMENT_MISMATCH

    def test_divergent_bind_is_an_output_mismatch_under_wide(self):
        def factory(ctx):
            def program():
                sock = yield from ctx.libc.socket()
                yield from ctx.libc.bind(sock.value, 8080 + ctx.index)
                yield from ctx.libc.exit(0)

            return program()

        _, result = _run(factory, interposition="wide")
        assert result.attack_detected
        alarm = result.first_alarm()
        assert alarm.alarm_type is AlarmType.OUTPUT_MISMATCH
        assert alarm.syscall == "bind"

    def test_alarm_breakdown_names_the_diverging_syscall(self):
        def factory(ctx):
            def program():
                yield from ctx.libc.syscall(Syscall.KILL, 1, 9 + ctx.index)
                yield from ctx.libc.exit(0)

            return program()

        _, result = _run(factory, interposition="wide")
        assert result.monitor.stats.alarm_breakdown.get("kill") == 1
