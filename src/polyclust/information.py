"""Shannon information measures over binary object vectors.

Everything is in bits (log base 2). The association between two objects
is the mutual information of their 2x2 feature co-occurrence table,
gated to zero when the table shows negative association: categories are
held together by co-presence, not by anti-correlation. Cohesion and
cross affinity, the means of these affinities over a category's pairs,
are computed once, over the affinity matrix, in ``engine``.
"""

from __future__ import annotations

import math
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


def object_pair_table(a: ObjectInstance, b: ObjectInstance) -> PairTable:
    """Count feature positions by the (a, b) bit combination they hold."""
    if len(a.bits) != len(b.bits):
        raise ValueError(
            f"length mismatch: {a.label!r} has {len(a.bits)} bits, "
            f"{b.label!r} has {len(b.bits)}"
        )
    n11 = n10 = n01 = n00 = 0
    for x, y in zip(a.bits, b.bits):
        if x:
            if y:
                n11 += 1
            else:
                n10 += 1
        elif y:
            n01 += 1
        else:
            n00 += 1
    return PairTable(n11, n10, n01, n00)


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
    return gated_transmission(object_pair_table(a, b))
