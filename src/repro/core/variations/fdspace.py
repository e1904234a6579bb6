"""File-descriptor diversity: the fd-orbit variation.

The paper's data-diversity recipe applies to any value space whose concrete
representation a variant's user space holds but only the kernel interprets.
File descriptors qualify exactly like UIDs do: a served program treats them
as opaque tokens, passing them back unmodified into ``read``/``write``/
``close``, so each variant can hold its *own* re-expression of every
descriptor without disturbing normal equivalence.  An attacker who injects a
concrete fd value identically into every variant (e.g. to redirect a
``write`` at a descriptor the program never handed out) then loses: the
injected value decodes to N pairwise-different descriptors, the decoded
arguments diverge, and the monitor raises an alarm at the first use.

The mechanics mirror the UID variation, on the other side of the target
interpreter:

* descriptor *results* (``open``/``socket``/``accept``) are re-expressed
  with ``R_index`` before reaching variant *index*, so its user space only
  ever holds its own representation (variant 0 keeps real descriptors);
* descriptor *arguments* are decoded with ``R_index^-1`` ahead of the
  kernel, so the wrapper layer's shared/unshared dispatch and the kernel's
  descriptor tables always operate on real descriptors;
* canonicalization decodes the same argument positions, so the monitor
  compares semantic descriptors and normally-equivalent variants stay
  indistinguishable.

The re-expression itself is the :class:`~repro.memory.partition.FdOrbitScheme`
(top-bits orbit over the 32-bit value space), so fd diversity rides the same
N-ary partition-scheme protocol as the address and UID families and is swept
by the same invariant suite.
"""

from __future__ import annotations

from repro.core.reexpression import ReexpressionFunction
from repro.core.variations.base import Variation
from repro.interpose import CLASSIC_TABLE
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult
from repro.memory.partition import FdOrbitScheme

#: Calls whose first argument is a descriptor: the classic fd family plus
#: ``accept`` (which consumes the listening descriptor it drains).
FD_ARGUMENT_SYSCALLS = CLASSIC_TABLE.fd_syscalls | {Syscall.ACCEPT}

#: Calls whose successful result installs and returns a new descriptor.
FD_RESULT_SYSCALLS = frozenset({Syscall.OPEN, Syscall.SOCKET, Syscall.ACCEPT})


class FdOrbitVariation(Variation):
    """N variants each holding a distinct re-expression of every descriptor."""

    name = "fd-orbit-variation"
    target_type = "fd"
    reference = "descriptor-space extension of Section 3 (this reproduction)"

    #: Only descriptor-carrying calls are ever rewritten; everything else
    #: takes the comparator's batched fast path.
    canonical_syscalls = FD_ARGUMENT_SYSCALLS
    transform_syscalls = FD_ARGUMENT_SYSCALLS
    result_syscalls = FD_RESULT_SYSCALLS

    def __init__(self, num_variants: int = 2, *, scheme: "FdOrbitScheme | None" = None):
        if scheme is None:
            scheme = FdOrbitScheme(num_variants)
        if scheme.num_partitions != num_variants:
            raise ValueError(
                f"scheme {scheme.kind!r} carves {scheme.num_partitions} partitions, "
                f"variation wants {num_variants}"
            )
        self.scheme = scheme
        self.num_variants = num_variants

    # -- reexpression ------------------------------------------------------------

    def reexpression(self, index: int) -> ReexpressionFunction:
        """``R_i(fd) = fd + (i << shift)`` (identity for variant 0)."""
        self._check_index(index)
        return self.scheme.reexpression(index, domain="fd")

    def encode(self, index: int, fd: int) -> int:
        """Variant *index*'s concrete representation of real descriptor *fd*."""
        return self.scheme.translate(index, fd)

    def decode(self, index: int, value: int) -> int:
        """The real descriptor behind variant *index*'s concrete *value*."""
        return self.scheme.untranslate(index, value)

    # -- system-call hooks ---------------------------------------------------------

    def transform_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Apply ``R_index^-1`` to the descriptor argument ahead of the kernel."""
        self._check_index(index)
        if request.name in FD_ARGUMENT_SYSCALLS:
            return request.with_args(self._decode_fd_arg(index, request.args))
        return request

    def transform_result(
        self, index: int, request: SyscallRequest, result: SyscallResult
    ) -> SyscallResult:
        """Apply ``R_index`` to trusted descriptor results (open/socket/accept)."""
        self._check_index(index)
        if (
            request.name in FD_RESULT_SYSCALLS
            and result.ok
            and isinstance(result.value, int)
            and not isinstance(result.value, bool)
            and result.value >= 0
        ):
            return SyscallResult(value=self.encode(index, result.value), errno=result.errno)
        return result

    def canonicalize_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Decode the descriptor argument so the monitor compares real fds."""
        self._check_index(index)
        if request.name in FD_ARGUMENT_SYSCALLS:
            return request.with_args(self._decode_fd_arg(index, request.args))
        return request

    # -- helpers -------------------------------------------------------------------

    def _decode_fd_arg(self, index: int, args: tuple) -> tuple:
        if not args:
            return args
        value = args[0]
        # Negative values are error sentinels every variant holds verbatim
        # (failed results are never re-expressed), so decoding them would
        # *break* normal equivalence rather than preserve it.
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            return args
        return (self.decode(index, value),) + tuple(args[1:])
