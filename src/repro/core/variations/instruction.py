"""Instruction-set tagging variation (row 3 of Table 1).

Each variant's code is rewritten so that every instruction carries that
variant's tag (``R_0(inst) = 0 || inst``, ``R_1(inst) = 1 || inst``); the tag
is checked and stripped immediately before execution.  Injected code is
identical in both variants, so it fails the tag check in at least one of
them -- detection without any secret.

The actual tagging machinery lives in :mod:`repro.isa.tagging`; this class
adapts it to the :class:`~repro.core.variations.base.Variation` interface so
it appears in the Table 1 reproduction and can be stacked with other
variations for code-injection experiments.
"""

from __future__ import annotations

from repro.core.reexpression import ReexpressionFunction
from repro.core.variations.base import Variation
from repro.isa.instructions import Instruction
from repro.isa.tagging import tag_stream, untag_stream


class InstructionSetTagging(Variation):
    """Per-variant instruction tags, checked and stripped before execution."""

    name = "instruction-set-tagging"
    target_type = "instruction"
    reference = "Cox et al., USENIX Security 2006 [16]"

    #: Tagging rewrites code images, not system calls.
    canonical_syscalls = frozenset()
    transform_syscalls = frozenset()
    result_syscalls = frozenset()

    def __init__(self) -> None:
        self.num_variants = 2

    def reexpression(self, index: int) -> ReexpressionFunction:
        """Reexpression over integer-encoded instructions.

        ``forward`` prepends the variant's tag above the 32-bit instruction
        encoding; ``inverse`` strips a *matching* tag, and maps any value
        whose tag does not match onto a per-variant fault sentinel (a
        negative value no instruction encoding can take).  The sentinel makes
        the partiality of the real inverse (an illegal-instruction trap)
        visible to the generic property checkers: an untagged or
        foreign-tagged value never decodes to the same thing in two variants,
        which is exactly the disjointedness argument for this variation.  The
        stream-level transformation used by the execution path is exposed
        through :meth:`tag_program` / :meth:`untag_program`.
        """
        self._check_index(index)

        def forward(value: int, i: int = index) -> int:
            return (i << 32) | (value & 0xFFFFFFFF)

        def inverse(value: int, i: int = index) -> int:
            if (value >> 32) == i:
                return value & 0xFFFFFFFF
            return -(i + 1)  # fault sentinel: "illegal instruction in variant i"

        return ReexpressionFunction(
            name=f"tag-{index}",
            forward=forward,
            inverse=inverse,
            domain="instruction",
            formula=f"R{index}(inst) = {index} || inst",
            inverse_formula=f"R{index}^-1({index} || inst) = inst",
        )

    def tag_program(self, instructions: list[Instruction], index: int) -> bytes:
        """Apply ``R_index`` to a whole program: the variant's code image."""
        self._check_index(index)
        return tag_stream(instructions, index)

    def untag_program(self, tagged: bytes, index: int) -> list[Instruction]:
        """Apply ``R_index^-1``: check tags and recover executable instructions.

        Raises :class:`~repro.kernel.errors.IllegalInstructionFault` when the
        stream carries wrong tags -- the detection event for injected code.
        """
        self._check_index(index)
        return untag_stream(tagged, index)
