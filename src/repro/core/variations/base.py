"""Base class for N-variant variations.

A *variation* is one diversity technique deployed across the variants: it
defines the reexpression function each variant uses for its target data type
(Table 1 of the paper) and the hooks the framework needs to keep the variants
normally equivalent:

* how to build each variant's address space (address-space partitioning),
* how to rewrite system-call arguments and results so that the kernel -- the
  *target interpreter* for UID data -- always operates on decoded values while
  each variant's user space only ever holds its own representation,
* how each variant's view of trusted external files is produced (unshared
  files), and
* how the monitor canonicalizes a variant's system call before comparing it
  with its siblings (the *canonicalization function* of the paper's model).

Variations are composable: an N-variant system may run address partitioning
and the UID variation simultaneously (Configuration 4 of Table 3 layers the
UID variation on the 2-variant baseline), as long as each hook composes.

Each of the three per-syscall hooks has a declared *footprint*: the set of
system calls it may rewrite (:attr:`Variation.canonical_syscalls`,
:attr:`Variation.transform_syscalls`, :attr:`Variation.result_syscalls`).
:class:`VariationStack` routes every call only through the variations whose
footprint covers its syscall, so a hook outside its footprint is never
called; the lockstep engine skips whole stages whose stack-wide footprint
misses the round's syscall.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence

from repro.core.reexpression import ReexpressionFunction, identity_reexpression
from repro.kernel.filesystem import FileSystem
from repro.kernel.syscalls import Syscall, SyscallPlans, SyscallRequest, SyscallResult
from repro.memory.address_space import AddressSpace

#: Each footprint attribute with the hook whose rewrites it declares, in
#: :class:`Route` field order.
FOOTPRINT_HOOKS = (
    ("canonical_syscalls", "canonicalize_request"),
    ("transform_syscalls", "transform_request"),
    ("result_syscalls", "transform_result"),
)


class Variation:
    """One diversity technique applied across all variants of a system."""

    #: Human-readable variation name (used in Table 1 reproduction).
    name: str = "identity"

    #: The data type whose representation is diversified.
    target_type: str = "none"

    #: Number of variants this variation is defined for.
    num_variants: int = 2

    #: Literature reference shown in the Table 1 reproduction.
    reference: str = ""

    #: The system calls :meth:`canonicalize_request` may rewrite, or ``None``
    #: when the set cannot be stated statically.  For any other syscall the
    #: hook must return its input unchanged, so :class:`VariationStack` never
    #: calls it there, and the lockstep engine's
    #: :class:`~repro.core.monitor.SyscallComparator` skips canonicalization
    #: entirely for calls outside every variation's footprint.  ``None``
    #: routes every call through the hook, so an undeclared subclass stays
    #: correct, just slower.  A subclass overriding :meth:`canonicalize_request`
    #: without redeclaring this in the same class is detected by
    #: :class:`VariationStack`, which then treats the footprint as unknown --
    #: a stale inherited declaration can never silently bypass the
    #: subclass's canonicalization.
    canonical_syscalls: Optional[frozenset[Syscall]] = None

    #: The system calls :meth:`transform_request` may rewrite (same contract
    #: as :attr:`canonical_syscalls`, for the outgoing-request hook).
    transform_syscalls: Optional[frozenset[Syscall]] = None

    #: The system calls whose results :meth:`transform_result` may rewrite
    #: (same contract as :attr:`canonical_syscalls`, for the result hook).
    result_syscalls: Optional[frozenset[Syscall]] = None

    # -- reexpression functions ------------------------------------------------

    def reexpression(self, index: int) -> ReexpressionFunction:
        """The reexpression function ``R_index`` for variant *index*."""
        self._check_index(index)
        return identity_reexpression(self.target_type)

    def reexpressions(self) -> list[ReexpressionFunction]:
        """All variants' reexpression functions, in variant order."""
        return [self.reexpression(i) for i in range(self.num_variants)]

    # -- per-variant construction hooks -------------------------------------------

    def make_address_space(self, index: int) -> Optional[AddressSpace]:
        """Address space for variant *index*, or ``None`` if unaffected."""
        self._check_index(index)
        return None

    def setup_unshared_files(self, fs: FileSystem) -> dict[str, list[str]]:
        """Create per-variant copies of trusted external files.

        Returns a mapping ``original path -> [variant-0 path, variant-1 path,
        ...]`` which the wrapper layer registers as unshared (Section 3.4).
        The default variation needs none.
        """
        return {}

    # -- system-call hooks (target-interpreter boundary) ----------------------------

    def transform_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Rewrite an outgoing call so the kernel sees decoded values.

        This is where the inverse reexpression function ``R_index^-1`` is
        installed "in front of the target interpreter" (Figure 2).  The
        default is the identity.
        """
        self._check_index(index)
        return request

    def transform_result(
        self, index: int, request: SyscallRequest, result: SyscallResult
    ) -> SyscallResult:
        """Rewrite a call result so the variant sees its own representation.

        Trusted values produced by the kernel (e.g. ``getuid``'s return) are
        reexpressed with ``R_index`` before being handed to variant *index*.
        """
        self._check_index(index)
        return result

    def canonicalize_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Map a variant's call onto the canonical form the monitor compares.

        This implements the paper's canonicalization function: after applying
        it, normally-equivalent variants produce identical requests, and any
        remaining difference is a detected divergence.
        """
        self._check_index(index)
        return request

    # -- reporting ---------------------------------------------------------------

    def table1_row(self) -> dict[str, str]:
        """The row this variation contributes to the Table 1 reproduction."""
        functions = self.reexpressions()
        return {
            "variation": self.name,
            "target_type": self.target_type,
            "reexpression": "; ".join(
                f"R{i}: {f.formula or f.name}" for i, f in enumerate(functions)
            ),
            "inverse": "; ".join(
                f"R{i}^-1: {f.inverse_formula or f.name}" for i, f in enumerate(functions)
            ),
            "reference": self.reference,
        }

    # -- internals -----------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_variants:
            raise ValueError(
                f"variant index {index} out of range for {self.name} "
                f"({self.num_variants} variants)"
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} target={self.target_type!r}>"


class Route(NamedTuple):
    """The variations one syscall is routed through, per hook, in call order."""

    canonical: tuple[Variation, ...]
    transform: tuple[Variation, ...]
    #: Reversed: results unwind the stack.
    result: tuple[Variation, ...]


def _declared_footprint(
    variation: Variation, attribute: str, hook: str
) -> Optional[frozenset[Syscall]]:
    """*variation*'s footprint for *hook*, or ``None`` when it cannot be trusted.

    A class that overrides the hook below where the footprint was declared
    inherited a footprint that cannot be trusted to cover the override; it
    counts as unknown, so the override is routed every call rather than
    silently skipped.
    """
    declared = getattr(variation, attribute)
    if declared is None:
        return None
    hook_class = _declaring_class(type(variation), hook)
    declaration_class = _declaring_class(type(variation), attribute)
    if (
        hook_class is not None
        and declaration_class is not None
        and hook_class is not declaration_class
        and issubclass(hook_class, declaration_class)
    ):
        return None
    return declared


def _declaring_class(cls: type, attribute: str) -> Optional[type]:
    for klass in cls.__mro__:
        if attribute in vars(klass):
            return klass
    return None


def _route(
    variations: Sequence[Variation],
    footprints: Sequence[tuple[Optional[frozenset[Syscall]], ...]],
    name: Syscall,
) -> Route:
    """Route *name* through each variation whose footprint covers it or is unknown."""
    routed = [
        tuple(
            variation
            for variation, footprint in zip(variations, footprints)
            if footprint[slot] is None or name in footprint[slot]
        )
        for slot in range(len(FOOTPRINT_HOOKS))
    ]
    return Route(routed[0], routed[1], routed[2][::-1])


class VariationStack:
    """An ordered collection of variations applied together.

    Hooks compose in order for outgoing transformations and in reverse order
    for results, which keeps nested reexpressions well-formed even though the
    paper's variations touch disjoint data types.

    Each hook call goes only through the variations whose declared footprint
    (:attr:`Variation.canonical_syscalls`, :attr:`~Variation.transform_syscalls`
    or :attr:`~Variation.result_syscalls`) covers the request's syscall or is
    unknown; the :class:`Route` is worked out on the first call for each
    syscall and cached.  Skipping a variation outside its footprint is exact,
    because a hook must return its input unchanged there.  The stack-wide
    unions (:meth:`canonical_syscalls` and friends) let the lockstep engine
    skip a stage outright.
    """

    def __init__(self, variations: Sequence[Variation], num_variants: int = 2):
        for variation in variations:
            if variation.num_variants != num_variants:
                raise ValueError(
                    f"variation {variation.name} supports {variation.num_variants} "
                    f"variants, system wants {num_variants}"
                )
        self.variations = list(variations)
        self.num_variants = num_variants
        footprints = [
            tuple(_declared_footprint(v, attribute, hook) for attribute, hook in FOOTPRINT_HOOKS)
            for v in self.variations
        ]
        self._canonical_syscalls, self._transform_syscalls, self._result_syscalls = (
            self._union(footprints, slot) for slot in range(len(FOOTPRINT_HOOKS))
        )
        self._routes: SyscallPlans[Route] = SyscallPlans(
            functools.partial(_route, tuple(self.variations), footprints)
        )

    @staticmethod
    def _union(
        footprints: Sequence[tuple[Optional[frozenset[Syscall]], ...]], slot: int
    ) -> Optional[frozenset[Syscall]]:
        union: frozenset[Syscall] = frozenset()
        for footprint in footprints:
            if footprint[slot] is None:
                return None
            union |= footprint[slot]
        return union

    def canonical_syscalls(self) -> Optional[frozenset[Syscall]]:
        """Union of the stack's canonicalization footprints (``None`` = unknown)."""
        return self._canonical_syscalls

    def transform_syscalls(self) -> Optional[frozenset[Syscall]]:
        """Union of the stack's request-transformation footprints."""
        return self._transform_syscalls

    def result_syscalls(self) -> Optional[frozenset[Syscall]]:
        """Union of the stack's result-transformation footprints."""
        return self._result_syscalls

    def make_address_space(self, index: int) -> AddressSpace:
        """First variation-provided address space, or a default flat space."""
        for variation in self.variations:
            space = variation.make_address_space(index)
            if space is not None:
                return space
        return AddressSpace()

    def setup_unshared_files(self, fs: FileSystem) -> dict[str, list[str]]:
        """Union of every variation's unshared-file mappings."""
        mapping: dict[str, list[str]] = {}
        for variation in self.variations:
            mapping.update(variation.setup_unshared_files(fs))
        return mapping

    def transform_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Compose the routed variations' outgoing transformations."""
        for variation in self._routes[request.name].transform:
            request = variation.transform_request(index, request)
        return request

    def transform_result(
        self, index: int, request: SyscallRequest, result: SyscallResult
    ) -> SyscallResult:
        """Compose the routed variations' result transformations (reverse order)."""
        for variation in self._routes[request.name].result:
            result = variation.transform_result(index, request, result)
        return result

    def canonicalize_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Compose the routed variations' canonicalization functions."""
        for variation in self._routes[request.name].canonical:
            request = variation.canonicalize_request(index, request)
        return request

    def __iter__(self):
        return iter(self.variations)

    def __len__(self) -> int:
        return len(self.variations)
