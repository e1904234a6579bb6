"""System call interface between variant programs and the simulated kernel.

Programs in this reproduction are Python generator coroutines.  Whenever the
program needs a kernel service it *yields* a :class:`SyscallRequest`; the
execution engine (either the plain :class:`~repro.kernel.kernel.SimulatedKernel`
for a single process, or the :class:`~repro.engine.session.NVariantSession`
lockstep engine for a redundant system) performs the call and sends back a
:class:`SyscallResult`.  This is the exact boundary the paper instruments:
system calls are the synchronisation points, the monitoring points, and the
place where inverse reexpression functions are applied.

The classification sets at the bottom of the module encode the wrapper policy
from Sections 3.1 and 3.5 of the paper:

* ``INPUT_SYSCALLS`` are performed once and the same data is sent to all
  variants (so the attacker necessarily delivers identical bytes everywhere).
* ``OUTPUT_SYSCALLS`` are checked for equivalence across variants and
  performed once.
* ``UID_PARAMETER_SYSCALLS`` take uid_t/gid_t arguments; the wrapper applies
  the variant's inverse reexpression function to those arguments and checks
  that the decoded values agree across variants.
* ``UID_RESULT_SYSCALLS`` return uid_t/gid_t values; the wrapper applies the
  variant's (forward) reexpression function to the trusted result.
* ``DETECTION_SYSCALLS`` are the new calls from Table 2 of the paper.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, TypeVar

from repro.kernel.errors import Errno

_Plan = TypeVar("_Plan")


class Syscall(enum.Enum):
    """Names of the system calls understood by the simulated kernel.

    Members are singletons compared by identity, so they hash by identity
    too: ``Enum``'s default ``__hash__`` is a Python-level function, and
    every lockstep round looks syscalls up in several sets and dicts.
    Identity hashes differ between processes, so code that iterates a set
    of syscalls must not let that order reach its output (sort first).
    """

    __hash__ = object.__hash__

    # -- process control ---------------------------------------------------
    EXIT = "exit"
    GETPID = "getpid"
    FORK = "fork"
    WAITPID = "waitpid"
    KILL = "kill"

    # -- credentials -------------------------------------------------------
    GETUID = "getuid"
    GETEUID = "geteuid"
    GETGID = "getgid"
    GETEGID = "getegid"
    SETUID = "setuid"
    SETEUID = "seteuid"
    SETREUID = "setreuid"
    SETRESUID = "setresuid"
    SETGID = "setgid"
    SETEGID = "setegid"
    SETGROUPS = "setgroups"

    # -- filesystem --------------------------------------------------------
    OPEN = "open"
    CLOSE = "close"
    READ = "read"
    WRITE = "write"
    LSEEK = "lseek"
    STAT = "stat"
    FSTAT = "fstat"
    ACCESS = "access"
    MKDIR = "mkdir"
    UNLINK = "unlink"
    RENAME = "rename"
    CHOWN = "chown"
    CHMOD = "chmod"
    GETDENTS = "getdents"
    CHDIR = "chdir"

    # -- sockets (simplified network model) --------------------------------
    SOCKET = "socket"
    BIND = "bind"
    LISTEN = "listen"
    ACCEPT = "accept"
    RECV = "recv"
    SEND = "send"
    SHUTDOWN = "shutdown"

    # -- misc --------------------------------------------------------------
    TIME = "time"
    GETRANDOM = "getrandom"
    NANOSLEEP = "nanosleep"
    # A checked read of the caller's own address space: returns the bytes at
    # an absolute address or fails with EFAULT instead of segfaulting.  It is
    # deliberately absent from every policy set below, so the wrapper executes
    # it per variant against each variant's own memory -- the probe primitive
    # of the brute-force attacker model (repro.security).
    PEEK = "peek"

    # -- detection system calls added by the paper (Table 2) ----------------
    UID_VALUE = "uid_value"
    COND_CHK = "cond_chk"
    CC_EQ = "cc_eq"
    CC_NEQ = "cc_neq"
    CC_LT = "cc_lt"
    CC_LEQ = "cc_leq"
    CC_GT = "cc_gt"
    CC_GEQ = "cc_geq"


@dataclasses.dataclass(frozen=True)
class SyscallRequest:
    """A trap into the kernel: the call name and its positional arguments."""

    name: Syscall
    args: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, Syscall):
            raise TypeError(f"SyscallRequest.name must be a Syscall, got {self.name!r}")
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def with_args(self, args: tuple[Any, ...]) -> "SyscallRequest":
        """Return a copy of this request with substituted arguments."""
        return SyscallRequest(self.name, tuple(args))

    def describe(self) -> str:
        """Human-readable one-line rendering, used in alarms and traces."""
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.name.value}({rendered})"


@dataclasses.dataclass(frozen=True)
class SyscallResult:
    """The kernel's reply to a :class:`SyscallRequest`."""

    value: Any = 0
    errno: Errno = Errno.OK

    @property
    def ok(self) -> bool:
        """True when the call succeeded."""
        return self.errno == Errno.OK

    @classmethod
    def success(cls, value: Any = 0) -> "SyscallResult":
        """Build a successful result carrying *value*."""
        return cls(value=value, errno=Errno.OK)

    @classmethod
    def failure(cls, errno: Errno, value: Any = -1) -> "SyscallResult":
        """Build a failed result carrying *errno* (value defaults to -1)."""
        return cls(value=value, errno=Errno(errno))


# ---------------------------------------------------------------------------
# Wrapper policy classification (Sections 3.1 and 3.5 of the paper)
# ---------------------------------------------------------------------------

#: Calls whose data originates outside the system.  Performed once; the same
#: result is replicated to every variant.
INPUT_SYSCALLS = frozenset(
    {
        Syscall.READ,
        Syscall.RECV,
        Syscall.ACCEPT,
        Syscall.GETDENTS,
        Syscall.TIME,
        Syscall.GETRANDOM,
    }
)

#: Calls with externally visible effects.  Arguments are checked for
#: equivalence across variants and the call is issued once.
OUTPUT_SYSCALLS = frozenset(
    {
        Syscall.WRITE,
        Syscall.SEND,
        Syscall.UNLINK,
        Syscall.RENAME,
        Syscall.MKDIR,
        Syscall.CHOWN,
        Syscall.CHMOD,
        Syscall.KILL,
        Syscall.SHUTDOWN,
    }
)

#: Calls taking uid_t/gid_t parameters; the target interface of the UID
#: variation.  The wrapper applies inverse reexpression to the UID arguments.
#: Maps syscall -> indices of the UID-typed arguments.
UID_PARAMETER_SYSCALLS: dict[Syscall, tuple[int, ...]] = {
    Syscall.SETUID: (0,),
    Syscall.SETEUID: (0,),
    Syscall.SETREUID: (0, 1),
    Syscall.SETRESUID: (0, 1, 2),
    Syscall.SETGID: (0,),
    Syscall.SETEGID: (0,),
    Syscall.CHOWN: (1, 2),
}

#: Calls returning uid_t/gid_t values; the wrapper applies the forward
#: reexpression function to the (trusted) result for each variant.
UID_RESULT_SYSCALLS = frozenset(
    {
        Syscall.GETUID,
        Syscall.GETEUID,
        Syscall.GETGID,
        Syscall.GETEGID,
    }
)

#: The new detection calls from Table 2 of the paper.
DETECTION_SYSCALLS = frozenset(
    {
        Syscall.UID_VALUE,
        Syscall.COND_CHK,
        Syscall.CC_EQ,
        Syscall.CC_NEQ,
        Syscall.CC_LT,
        Syscall.CC_LEQ,
        Syscall.CC_GT,
        Syscall.CC_GEQ,
    }
)

#: Detection calls that compare two uid_t parameters (the cc_* family).
UID_COMPARISON_SYSCALLS = frozenset(
    {
        Syscall.CC_EQ,
        Syscall.CC_NEQ,
        Syscall.CC_LT,
        Syscall.CC_LEQ,
        Syscall.CC_GT,
        Syscall.CC_GEQ,
    }
)

#: Calls that accept a pathname as their first argument (used by the
#: unshared-files mechanism to redirect opens of diversified files).
PATH_SYSCALLS = frozenset(
    {
        Syscall.OPEN,
        Syscall.STAT,
        Syscall.ACCESS,
        Syscall.MKDIR,
        Syscall.UNLINK,
        Syscall.CHOWN,
        Syscall.CHMOD,
        Syscall.CHDIR,
        Syscall.GETDENTS,
    }
)


class SyscallPlans(dict[Syscall, _Plan]):
    """Per-syscall work, built by ``build(name)`` on the first lookup of *name*.

    The lockstep hot path looks a round's syscall up once and gets back
    everything the layer needs for it.  Plans are filled lazily because a
    session only ever issues a handful of the kernel's syscalls, and
    sessions are built far more often than any one syscall is planned.
    *build* should not close over the owner of the plans (pass the data
    it needs instead), so the owner stays free of reference cycles.
    """

    __slots__ = ("_build",)

    def __init__(self, build: Callable[[Syscall], _Plan]):
        super().__init__()
        self._build = build

    def __missing__(self, name: Syscall) -> _Plan:
        plan = self[name] = self._build(name)
        return plan


def request(name: Syscall, *args: Any) -> SyscallRequest:
    """Convenience constructor: ``request(Syscall.OPEN, "/etc/passwd", 0)``."""
    return SyscallRequest(name, tuple(args))
