"""System-call wrapper layer: input replication, once-only output, unshared files.

This is the reproduction of the kernel wrapper code described in Sections 3.1
and 3.4 of the paper.  Given one lockstep round of (already variation-
transformed) requests -- one per variant, already known to be equivalent by
the monitor -- the wrapper decides *how* to execute them:

* **once-and-replicate** for input calls, output calls and descriptor
  management on shared files: variant 0 performs the call, every variant
  receives the same result.  This removes input non-determinism and ensures
  attackers cannot send different data to different variants.
* **per-variant** for calls that touch per-variant state: credentials,
  detection calls, exits, and any I/O on *unshared* files.
* **unshared-file redirection** for opens of registered paths: variant *i*
  actually opens the variant-specific file (``/etc/passwd-i``), and all later
  I/O on that descriptor is performed separately by each variant.

Descriptor tables are kept slot-aligned across variants exactly as the paper
describes: when variant 0 opens a shared file at descriptor *n*, the same
open-file entry is installed at slot *n* of every other variant's table, and
a shared/unshared bitmap records how subsequent calls on that slot must be
handled.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Sequence

from repro.interpose import CLASSIC_TABLE, InterpositionTable, PolicyKind
from repro.kernel.errors import Errno
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.process import Process
from repro.kernel.syscalls import Syscall, SyscallPlans, SyscallRequest, SyscallResult

# Backwards-compatible views of the classic interposition table's derived
# sets (identical to the historical frozen constants by construction); the
# wrapper itself dispatches on its *active* table, not on these.
FD_SYSCALLS = CLASSIC_TABLE.fd_syscalls
DESCRIPTOR_CREATING_SYSCALLS = CLASSIC_TABLE.descriptor_creating_syscalls


class UnsharedFileRegistry:
    """Mapping from original paths to per-variant diversified paths."""

    def __init__(self, num_variants: int):
        self.num_variants = num_variants
        self._paths: dict[str, list[str]] = {}

    def register(self, original: str, variant_paths: Sequence[str]) -> None:
        """Register *original* as unshared, backed by *variant_paths*."""
        if len(variant_paths) != self.num_variants:
            raise ValueError(
                f"expected {self.num_variants} variant paths for {original}, "
                f"got {len(variant_paths)}"
            )
        self._paths[original] = list(variant_paths)

    def register_mapping(self, mapping: dict[str, Sequence[str]]) -> None:
        """Register several unshared paths at once."""
        for original, variant_paths in mapping.items():
            self.register(original, variant_paths)

    def is_unshared(self, path: str) -> bool:
        """True when *path* has per-variant copies."""
        return path in self._paths

    def variant_path(self, path: str, index: int) -> str:
        """The path variant *index* should actually open for *path*."""
        return self._paths[path][index]

    def originals(self) -> list[str]:
        """All registered original paths."""
        return sorted(self._paths)


@dataclasses.dataclass
class WrapperStats:
    """Accounting used by the performance model (Table 3).

    ``replicated_calls`` were executed once on behalf of all variants;
    ``per_variant_calls`` were executed by every variant; ``checks`` counts
    cross-variant equivalence checks performed by the wrapper/monitor pair.
    """

    replicated_calls: int = 0
    per_variant_calls: int = 0
    unshared_opens: int = 0
    checks: int = 0
    denied_calls: int = 0


class SyscallWrappers:
    """Executes one lockstep round of equivalent requests.

    *How* each round executes is decided by the active
    :class:`~repro.interpose.InterpositionTable` (default ``"classic"``,
    reproducing the historical dispatch exactly): denied calls are refused
    before the kernel is entered, descriptor-creating and fd-carrying calls
    go through the shared/unshared descriptor machinery, replicated calls
    run once on behalf of all variants, and everything else fans out per
    variant.  Each syscall's strategy is resolved from its table entry on
    the first round that issues it and cached, so a round costs one lookup.
    """

    def __init__(
        self,
        kernel: SimulatedKernel,
        processes: Sequence[Process],
        registry: UnsharedFileRegistry | None = None,
        table: InterpositionTable | None = None,
    ):
        self.kernel = kernel
        self.processes = list(processes)
        self.registry = registry if registry is not None else UnsharedFileRegistry(len(processes))
        self.table = table if table is not None else CLASSIC_TABLE
        self.stats = WrapperStats()
        self._unshared_fds: set[int] = set()
        self._strategies: SyscallPlans[_Strategy] = SyscallPlans(
            functools.partial(_resolve_strategy, self.table)
        )

    # -- public API -----------------------------------------------------------

    def execute_round(self, requests: Sequence[SyscallRequest]) -> list[SyscallResult]:
        """Execute one equivalent request per variant, returning per-variant results."""
        if len(requests) != len(self.processes):
            raise ValueError("one request per variant is required")
        self.stats.checks += 1
        return self._strategies[requests[0].name](self, requests)

    def is_unshared_fd(self, fd: int) -> bool:
        """True when descriptor *fd* currently refers to an unshared file."""
        return fd in self._unshared_fds

    # -- strategies ----------------------------------------------------------------

    def _execute_deny(self, requests: Sequence[SyscallRequest]) -> list[SyscallResult]:
        """Refuse the call uniformly, without ever entering the kernel.

        Every variant observes the same ``EPERM``, so a denied call is not
        itself a divergence source -- it just removes the syscall from the
        attack surface (the wide table's treatment of ``fork``/``waitpid``).
        """
        self.stats.denied_calls += 1
        result = SyscallResult.failure(Errno.EPERM)
        return [result for _ in self.processes]

    def _execute_once(self, requests: Sequence[SyscallRequest]) -> list[SyscallResult]:
        """Variant 0 performs the call; all variants receive the result."""
        self.stats.replicated_calls += 1
        result = self.kernel.execute(self.processes[0], requests[0])
        return [result for _ in self.processes]

    def _execute_per_variant(self, requests: Sequence[SyscallRequest]) -> list[SyscallResult]:
        """Each variant performs its own call (credentials, detection, exits)."""
        self.stats.per_variant_calls += 1
        return [
            self.kernel.execute(process, request)
            for process, request in zip(self.processes, requests)
        ]

    def _execute_open(self, requests: Sequence[SyscallRequest]) -> list[SyscallResult]:
        """Open handling: redirect unshared paths, mirror shared descriptors."""
        path = requests[0].args[0] if requests[0].args else ""
        if self.registry.is_unshared(path):
            self.stats.unshared_opens += 1
            self.stats.per_variant_calls += 1
            results = []
            for index, (process, request) in enumerate(zip(self.processes, requests)):
                redirected = request.with_args(
                    (self.registry.variant_path(path, index),) + tuple(request.args[1:])
                )
                results.append(self.kernel.execute(process, redirected))
            fds = {result.value for result in results if result.ok}
            if len(fds) > 1:
                raise RuntimeError(
                    "variant descriptor tables lost alignment on unshared open: "
                    f"{sorted(fds)}"
                )
            if fds:
                self._unshared_fds.add(fds.pop())
            return results

        self.stats.replicated_calls += 1
        result = self.kernel.execute(self.processes[0], requests[0])
        if result.ok:
            entry = self.processes[0].fds.get(result.value)
            for process in self.processes[1:]:
                process.fds.install(result.value, entry)
            self._unshared_fds.discard(result.value)
        return [result for _ in self.processes]

    def _execute_descriptor_creating(
        self, requests: Sequence[SyscallRequest]
    ) -> list[SyscallResult]:
        """Socket/accept: execute once and mirror the new descriptor."""
        self.stats.replicated_calls += 1
        result = self.kernel.execute(self.processes[0], requests[0])
        if result.ok:
            entry = self.processes[0].fds.get(result.value)
            for process in self.processes[1:]:
                process.fds.install(result.value, entry)
            self._unshared_fds.discard(result.value)
        return [result for _ in self.processes]

    def _execute_fd_call(self, requests: Sequence[SyscallRequest]) -> list[SyscallResult]:
        """Descriptor-based I/O: shared descriptors once, unshared per variant."""
        fd = requests[0].args[0] if requests[0].args else -1
        name = requests[0].name

        if isinstance(fd, int) and fd in self._unshared_fds:
            self.stats.per_variant_calls += 1
            results = [
                self.kernel.execute(process, request)
                for process, request in zip(self.processes, requests)
            ]
            if name is Syscall.CLOSE:
                self._unshared_fds.discard(fd)
            return results

        self.stats.replicated_calls += 1
        result = self.kernel.execute(self.processes[0], requests[0])
        if name is Syscall.CLOSE and isinstance(fd, int):
            # Keep the other variants' tables aligned: drop their mirrored entry.
            for process in self.processes[1:]:
                if fd in process.fds:
                    process.fds.close(fd)
        return [result for _ in self.processes]


#: A strategy is an unbound :class:`SyscallWrappers` method, so the cached
#: plans hold no reference back to the wrapper that owns them.
_Strategy = Callable[[SyscallWrappers, Sequence[SyscallRequest]], list[SyscallResult]]


def _resolve_strategy(table: InterpositionTable, name: Syscall) -> _Strategy:
    """How *table* executes a round of *name*."""
    entry = table.entry(name)
    if entry.policy is PolicyKind.DENY:
        return SyscallWrappers._execute_deny
    if name is Syscall.OPEN:
        return SyscallWrappers._execute_open
    if entry.creates_fd:
        return SyscallWrappers._execute_descriptor_creating
    if entry.fd_arg:
        return SyscallWrappers._execute_fd_call
    if entry.policy is PolicyKind.REPLICATE:
        return SyscallWrappers._execute_once
    return SyscallWrappers._execute_per_variant
