"""The Baugh-Wooley two's-complement multiplier.

The paper's multipliers handle nonnegative integers; real signal-processing
workloads (the convolution/DCT/DFT applications the paper's model targets)
need signed words.  The classical bit-level answer is the Baugh-Wooley
scheme: a ``p x p`` lattice *identical in shape* to the add-shift array --
hence with the same dependence structure, so Theorem 3.1 applies verbatim --
in which the partial products involving exactly one sign bit are inverted
and two correction bits are injected:

.. math::

    a \\cdot b \\equiv \\sum_{i,j<p-1} a_i b_j 2^{i+j}
        + \\sum_{j<p-1} \\overline{a_{p-1} b_j}\\, 2^{p-1+j}
        + \\sum_{i<p-1} \\overline{a_i b_{p-1}}\\, 2^{p-1+i}
        + a_{p-1} b_{p-1} 2^{2p-2} + 2^p + 2^{2p-1} \\pmod{2^{2p}}

for ``p``-bit two's-complement operands, the result read as a signed
``2p``-bit word.  The evaluator below computes exactly that with a
column-compression bit heap (the hardware's compressor tree), bit-exactly
for every operand pair.
"""

from __future__ import annotations

from repro.arith.structure import ArithmeticStructure
from repro.structures.indexset import IndexSet
from repro.structures.params import LinExpr, S, as_linexpr

__all__ = ["BaughWooleyMultiplier", "baughwooley_structure"]


class BaughWooleyMultiplier:
    """Bit-exact signed multiplier for ``p``-bit two's-complement words."""

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("Baugh-Wooley needs p >= 2 (a sign bit plus data)")
        self.p = int(p)

    def _operand_bits(self, value: int, name: str) -> list[int]:
        p = self.p
        lo, hi = -(1 << (p - 1)), (1 << (p - 1)) - 1
        if not lo <= value <= hi:
            raise ValueError(f"{name}={value} outside the {p}-bit signed range")
        return [(value >> k) & 1 for k in range(p)]  # two's complement bits

    def partial_product_bits(self, a: int, b: int) -> dict[int, list[int]]:
        """The Baugh-Wooley bit heap: position (0-based) -> list of bits."""
        p = self.p
        a_bits = self._operand_bits(a, "a")
        b_bits = self._operand_bits(b, "b")
        heap: dict[int, list[int]] = {}

        def drop(pos: int, bit: int) -> None:
            heap.setdefault(pos, []).append(bit)

        for i in range(p - 1):
            for j in range(p - 1):
                drop(i + j, a_bits[i] & b_bits[j])
        for j in range(p - 1):
            drop(p - 1 + j, 1 - (a_bits[p - 1] & b_bits[j]))
        for i in range(p - 1):
            drop(p - 1 + i, 1 - (a_bits[i] & b_bits[p - 1]))
        drop(2 * p - 2, a_bits[p - 1] & b_bits[p - 1])
        drop(p, 1)  # correction constants
        drop(2 * p - 1, 1)
        return heap

    def multiply(self, a: int, b: int) -> int:
        """The exact signed product ``a * b``."""
        p = self.p
        heap = self.partial_product_bits(a, b)
        # Column compression, exactly as a compressor tree would.
        total = 0
        for pos, bits in heap.items():
            total += sum(bits) << pos
        total &= (1 << (2 * p)) - 1
        # Interpret as a signed 2p-bit word.
        if total >> (2 * p - 1):
            total -= 1 << (2 * p)
        return total

    @property
    def steps(self) -> int:
        """Lattice size (``p²`` partial products plus two corrections)."""
        return self.p * self.p + 2


def _multiply(a: int, b: int, p: int) -> int:
    return BaughWooleyMultiplier(p).multiply(a, b)


def baughwooley_structure(p: LinExpr | int | None = None) -> ArithmeticStructure:
    """Dependence structure of the Baugh-Wooley lattice.

    Geometrically identical to add-shift (same ``p x p`` lattice, same
    carry/sum movement); only the cell Boolean functions differ, which the
    dependence-level machinery never sees.
    """
    p = S("p") if p is None else as_linexpr(p)
    return ArithmeticStructure(
        name="baugh-wooley",
        index_set=IndexSet([1, 1], [p, p], ("i1", "i2")),
        delta_a=(1, 0),
        delta_b=(0, 1),
        delta_s=(1, -1),
        delta_carry=(0, 1),
        delta_carry2=(0, 2),
        multiply=_multiply,
    )
