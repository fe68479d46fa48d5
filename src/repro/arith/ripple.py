"""The ripple-carry adder: the word-wise addition substrate.

The paper's technical report [7] contains "the dependence structure of an
algorithm for adding two integers"; the conference version omits it for
space.  The canonical such algorithm is the ripple-carry adder: a 1-D chain
of full adders in which the carry is the only cross-iteration dependence
(``δ̄ = [1]``).  It is included both as an executable primitive (used by the
sequential word multipliers) and as a dependence structure.
"""

from __future__ import annotations

from repro.arith.bitops import from_bits, full_adder, to_bits
from repro.structures.algorithm import Algorithm, ComputationSet
from repro.structures.conditions import TRUE
from repro.structures.dependence import DependenceMatrix, DependenceVector
from repro.structures.indexset import IndexSet
from repro.structures.params import LinExpr, S, as_linexpr

__all__ = ["RippleCarryAdder", "ripple_structure"]


class RippleCarryAdder:
    """Bit-exact ``width``-bit ripple-carry adder with step accounting."""

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("adder width must be positive")
        self.width = int(width)

    def add(self, a: int, b: int, carry_in: int = 0) -> tuple[int, int]:
        """Return ``(sum mod 2^width, carry_out)``."""
        a_bits = to_bits(a, self.width)
        b_bits = to_bits(b, self.width)
        out = []
        carry = carry_in
        for k in range(self.width):
            sb, carry = full_adder(a_bits[k], b_bits[k], carry)
            out.append(sb)
        return from_bits(out), carry

    @property
    def steps(self) -> int:
        """Full-adder evaluations on the carry chain (``width``)."""
        return self.width


def ripple_structure(p: LinExpr | int | None = None) -> Algorithm:
    """The 1-D dependence structure of ripple-carry addition.

    Index set ``{i : 1 <= i <= p}``; one uniform dependence vector ``[1]``
    caused by the carry.
    """
    p = S("p") if p is None else as_linexpr(p)
    dep = DependenceMatrix([DependenceVector([1], ("c",), TRUE)])
    comp = ComputationSet(
        {
            "S_s": "s(i) = f(a(i), b(i), c(i-1))",
            "S_c": "c(i) = g(a(i), b(i), c(i-1))",
        }
    )
    return Algorithm(IndexSet([1], [p], ("i",)), dep, comp, "ripple-carry-adder")
