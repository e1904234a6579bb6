"""Address-space partitioning variations (rows 1 and 2 of Table 1), N-ary.

The original N-variant systems paper partitions the address space: variant 0
runs entirely at addresses with the high bit clear, variant 1 at addresses
with the high bit set (``R_1(a) = a + 0x80000000``).  An attack that injects
a complete absolute address can match at most one variant's partition; every
other variant faults when it dereferences the injected pointer and the
monitor reports the attack.

Nothing in that argument is specific to N=2, and since PR 5 the variations
here are thin wrappers over a :class:`~repro.memory.partition.PartitionScheme`:
the scheme decides how the 32-bit space is carved (high bit, top
``ceil(log2 N)`` bits, Bruschi's offset-extended slices) and the variation
merely hands each variant its partition.  Bruschi et al.'s *extended*
partitioning adds a further per-variant offset so that even the low-order
bytes of equivalent addresses differ across variants, restoring
(probabilistic) protection against partial pointer overwrites that leave the
high byte intact.  The detection matrix benchmark exercises the difference.
"""

from __future__ import annotations

from typing import Optional

from repro.core.reexpression import ReexpressionFunction
from repro.core.variations.base import Variation
from repro.memory.address_space import AddressSpace
from repro.memory.partition import (
    ExtendedOrbitScheme,
    HighBitScheme,
    KeyedAddressScheme,
    KeyedOrbitScheme,
    OrbitScheme,
    PartitionScheme,
)


class AddressPartitioning(Variation):
    """N variants with pairwise-disjoint (scheme-carved) address spaces.

    With the defaults this is the paper's 2-variant high-bit split; any
    other ``num_variants`` selects the top-bits orbit scheme, and an
    explicit *scheme* overrides the choice entirely (it must carve regions
    and agree on the partition count).
    """

    name = "address-partitioning"
    target_type = "address"
    reference = "Cox et al., USENIX Security 2006 [16]"

    #: Partitioning diversifies the address *spaces*, not any syscall
    #: arguments or results, so no syscall hook ever rewrites anything.
    canonical_syscalls = frozenset()
    transform_syscalls = frozenset()
    result_syscalls = frozenset()

    def __init__(
        self, num_variants: int = 2, *, scheme: Optional[PartitionScheme] = None
    ) -> None:
        if scheme is None:
            scheme = HighBitScheme() if num_variants == 2 else OrbitScheme(num_variants)
        if not scheme.carves_regions:
            raise ValueError(
                f"address partitioning needs a region-carving scheme, "
                f"got {scheme.kind!r}"
            )
        if scheme.num_partitions != num_variants:
            raise ValueError(
                f"scheme {scheme.kind!r} carves {scheme.num_partitions} partitions, "
                f"variation wants {num_variants}"
            )
        self.scheme = scheme
        self.num_variants = num_variants

    def reexpression(self, index: int) -> ReexpressionFunction:
        """``R_i(a) = a + base_of(i)`` (identity for partition 0)."""
        self._check_index(index)
        return self.scheme.reexpression(index, domain="address")

    def make_address_space(self, index: int) -> AddressSpace:
        """Variant *index*'s partitioned address space."""
        self._check_index(index)
        return AddressSpace(scheme=self.scheme, index=index)


class OrbitAddressPartitioning(AddressPartitioning):
    """The N-ary orbit: top-``ceil(log2 N)``-bits partitions for any N >= 2.

    The address-side sibling of the UID orbit: variant *i* owns the *i*-th
    top-bits slice of the address space, so any injected absolute pointer is
    valid in at most one of the N variants and every sibling's fault is the
    detection event.  The campaign layer sweeps variant count through it.
    """

    name = "address-orbit-partitioning"
    reference = "N-way extension of Cox et al. [16] (this reproduction)"

    def __init__(self, num_variants: int = 3):
        super().__init__(num_variants, scheme=OrbitScheme(num_variants))


class ExtendedAddressPartitioning(AddressPartitioning):
    """Partitioning plus a per-variant offset (Bruschi et al. [9]), N-ary.

    The extra offset makes even the low bytes of corresponding addresses
    differ between variants, so a partial (e.g. 3-low-byte) pointer overwrite
    is also detected with high probability.
    """

    name = "extended-address-partitioning"
    reference = "Bruschi et al., IWIA 2007 [9]"

    def __init__(self, offset: int = 0x00010000, num_variants: int = 2):
        super().__init__(
            num_variants, scheme=ExtendedOrbitScheme(num_variants, offset=offset)
        )
        self.offset = offset


class KeyedAddressPartitioning(AddressPartitioning):
    """Address partitioning with a *secret*, rotatable layout (keyed ASLR).

    Each variant's slice assignment and intra-slice slide come from a
    :class:`~repro.memory.partition.KeyedAddressScheme` keyed by ``key_bits``
    of entropy (optionally pinned by *seed*).  Against the public address
    schemes an attacker can aim an injected pointer into a known partition;
    here every probe is a guess in a ``2**key_bits`` space, and a guess that
    lands in *some* variant's partition -- but not everyone's -- diverges and
    alarms, which is the probes-to-first-alarm game the `entropy` experiment
    measures.  Keys rotate on session restart.
    """

    name = "keyed-address-partitioning"
    reference = "keyed ASLR-style extension of Cox et al. [16] (this reproduction)"

    def __init__(
        self,
        num_variants: int = 2,
        *,
        key_bits: int = 8,
        seed: "int | None" = None,
        slide: bool = True,
    ):
        scheme_cls = KeyedAddressScheme if slide else KeyedOrbitScheme
        super().__init__(
            num_variants,
            scheme=scheme_cls(num_variants, key_bits=key_bits, seed=seed),
        )
        self.key_bits = key_bits
        self.seed = seed
        self.slide = slide

    def rotate_key(self) -> None:
        """Redraw the slice assignments and slides in place.

        Address re-expressions and address spaces are derived from the
        scheme on demand, so no cached state needs refreshing.
        """
        self.scheme.rotate()

    def install_secret(self, values: "Sequence[int]") -> None:
        """Adopt a checkpointed secret layout (see :mod:`repro.load.checkpoint`).

        Everything address-side is derived from the scheme on demand, so the
        scheme-level install is the whole job.
        """
        self.scheme.install_secret(values)
