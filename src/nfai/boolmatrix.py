"""Bit-packed 0/1 matrices over the boolean semiring (OR of ANDs).

Rows are stored as Python integers, bit ``j`` of ``row_bits[i]`` being entry
``(i, j)``.  Multiplication ORs whole rows at once, so a product costs one
word-wide OR per set bit of the left operand instead of a triple loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple


def set_bits(mask: int) -> tuple:
    """The positions of the set bits of ``mask``, ascending.  Peeling off
    the lowest bit passes over the whole int once per bit, so past 1024
    bits one pass over its binary digits finds them instead."""
    out = []
    if mask >> 1024:
        digits = bin(mask)[:1:-1]  # bit 0 first
        at = digits.find("1")
        while at >= 0:
            out.append(at)
            at = digits.find("1", at + 1)
        return tuple(out)
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class BoolMatrix:
    rows: int
    cols: int
    row_bits: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        bits = tuple(int(r) for r in self.row_bits)
        if len(bits) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(bits)}")
        mask = (1 << self.cols) - 1
        for r in bits:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the declared column range")
        object.__setattr__(self, "row_bits", bits)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BoolMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BoolMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_pairs(cls, rows: int, cols: int, pairs: Iterable) -> "BoolMatrix":
        bits = [0] * rows
        for (i, j) in pairs:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) out of range")
            bits[i] |= 1 << j
        return cls(rows, cols, tuple(bits))

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        return (self.row_bits[i] >> j) & 1

    def count_ones(self) -> int:
        return sum(r.bit_count() for r in self.row_bits)

    def pairs(self):
        """Iterate set entries as (row, col), row-major."""
        for i, r in enumerate(self.row_bits):
            for j in set_bits(r):
                yield (i, j)

    def mul(self, other: "BoolMatrix") -> "BoolMatrix":
        """Boolean matrix product: result row i is the OR of the rows of
        ``other`` selected by the set bits of row i."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        other_rows = other.row_bits
        out = []
        for r in self.row_bits:
            acc = 0
            while r:
                low = r & -r
                acc |= other_rows[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return BoolMatrix(self.rows, other.cols, tuple(out))

    def le(self, other: "BoolMatrix") -> bool:
        """Entrywise <= (implication)."""
        return self.violating_entry(other) is None

    def violating_entry(self, other: "BoolMatrix") -> Optional[Tuple[int, int]]:
        """First (row, col) where self has a 1 but other has a 0, or None."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in comparison")
        for i, (a, b) in enumerate(zip(self.row_bits, other.row_bits)):
            extra = a & ~b
            if extra:
                return (i, (extra & -extra).bit_length() - 1)
        return None


def mul_triple_loop(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Reference cubic product, used to validate the bit-packed one."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    pairs = []
    for i in range(a.rows):
        for j in range(b.cols):
            if any(a.get(i, x) and b.get(x, j) for x in range(a.cols)):
                pairs.append((i, j))
    return BoolMatrix.from_pairs(a.rows, b.cols, pairs)
