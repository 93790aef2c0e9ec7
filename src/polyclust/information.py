"""Shannon information measures over binary object vectors.

Everything is in bits (log base 2). The association between two objects
is the mutual information of their 2x2 feature co-occurrence table,
gated to zero when the table shows no positive association: categories
are held together by co-presence, not by anti-correlation. The table
follows from four counts: the features both objects have (n11), each
object's number of features (``ObjectInstance.ones``) and the width.
``gated_transmission`` takes these counts and decides the gate on them,
as ints, before it builds any table: the determinant n11*n00 - n10*n01
equals n11*width - ones_a*ones_b. Only a positively associated table is
built, in one place, ``PairTable.of``, and reaches ``transmission``.
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


def gated_transmission(n11: int, ones_a: int, ones_b: int, width: int) -> Bits:
    """Transmission of the table of these counts, zero unless it shows positive association.

    The table's determinant equals n11*width - ones_a*ones_b, so the gate
    is exact integer arithmetic on the counts, decided before the table
    is built.
    """
    if n11 * width <= ones_a * ones_b:
        return 0.0
    return transmission(PairTable.of(n11, ones_a, ones_b, width))


def affinity(a: ObjectInstance, b: ObjectInstance) -> Bits:
    """Transmission between two objects, zero unless positively associated."""
    if len(a.bits) != len(b.bits):
        raise ValueError(
            f"length mismatch: {a.label!r} has {len(a.bits)} bits, "
            f"{b.label!r} has {len(b.bits)}"
        )
    n11 = sum(map(operator.and_, a.bits, b.bits))
    return gated_transmission(n11, a.ones, b.ones, len(a.bits))
