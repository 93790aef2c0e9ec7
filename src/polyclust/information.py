"""Shannon information measures over binary object vectors.

Everything is in bits (log base 2). The association between two objects
is the mutual information of their 2x2 feature co-occurrence table,
gated to zero when the table shows negative association: categories are
held together by co-presence, not by anti-correlation. The table is
built from four counts in one place, ``PairTable.of``: the features both
objects have (n11), each object's number of features, and the width.
Cohesion and cross affinity, the means of these affinities over a
category's pairs, are computed once, over the affinity matrix, in
``engine``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .model import ObjectInstance

Bits = float


@dataclass(frozen=True)
class PairTable:
    """2x2 co-occurrence counts between two equal-length bit vectors."""

    n11: int
    n10: int
    n01: int
    n00: int

    @classmethod
    def of(cls, n11: int, ones_a: int, ones_b: int, width: int) -> PairTable:
        """The table of two rows of width features, with ones_a and ones_b ones, n11 shared."""
        return cls(n11, ones_a - n11, ones_b - n11, width - ones_a - ones_b + n11)

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    def cells(self) -> tuple[int, int, int, int]:
        return (self.n11, self.n10, self.n01, self.n00)

    @property
    def determinant(self) -> int:
        return self.n11 * self.n00 - self.n10 * self.n01


def entropy(counts: Sequence[int]) -> Bits:
    """Shannon entropy of a count distribution, with 0 log 0 taken as 0."""
    total = 0
    for c in counts:
        if c < 0:
            raise ValueError(f"negative count {c}")
        total += c
    if total == 0:
        raise ValueError("empty distribution")
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return abs(h) if h == 0.0 else h


def transmission(t: PairTable) -> Bits:
    """Mutual information of a 2x2 table in bits, clamped at 0 against rounding."""
    if t.total == 0:
        raise ValueError("empty table")
    rows = (t.n11 + t.n10, t.n01 + t.n00)
    cols = (t.n11 + t.n01, t.n10 + t.n00)
    # cells are summed in sorted order so transposed tables round identically
    value = entropy(rows) + entropy(cols) - entropy(sorted(t.cells()))
    return value if value > 0.0 else 0.0


def gated_transmission(t: PairTable) -> Bits:
    """Transmission of a table, zero unless it shows positive association."""
    if t.determinant <= 0:
        return 0.0
    return transmission(t)


def affinity(a: ObjectInstance, b: ObjectInstance) -> Bits:
    """Transmission between two objects, zero unless positively associated."""
    if len(a.bits) != len(b.bits):
        raise ValueError(
            f"length mismatch: {a.label!r} has {len(a.bits)} bits, "
            f"{b.label!r} has {len(b.bits)}"
        )
    n11 = sum(map(operator.and_, a.bits, b.bits))
    return gated_transmission(PairTable.of(n11, a.ones, b.ones, len(a.bits)))
