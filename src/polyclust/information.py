"""Shannon information measures over binary object vectors.

Everything is in bits (log base 2). The association between two objects
is the mutual information of their 2x2 feature co-occurrence table,
gated to zero when the table shows no positive association: categories
are held together by co-presence, not by anti-correlation. The table
follows from four counts: the features both objects have (n11), each
object's number of features (``ObjectInstance.ones``) and the width.
``gated_transmission`` is the one kernel: it decides the gate on these
counts, as ints (the determinant n11*n00 - n10*n01 equals n11*width -
ones_a*ones_b), and computes the entropies straight from them, each
``p·log2 p`` term read from ``plogp(width)``, one tuple per width built
once per process. Its one memo, ``table_score``, is held for the process
too: each positive table is scored once, keyed by (n11, smaller size,
larger size, width), and the affinity matrix and every seed query read
that float. A gated table is not stored, so the memo holds one float per
distinct positive table per width, at most one per pair of objects (the
README gives its size on the benchmark's workloads).
``row_entropy`` is a row's entropy from its two counts, which ``info`` prints.
"""

from __future__ import annotations

import math
import operator
from functools import cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import ObjectInstance

Bits = float


@cache
def plogp(width: int) -> tuple[float, ...]:
    """``(c / width) * log2(c / width)`` for c = 0..width, 0 log 0 taken as 0.0; one per width."""
    return (0.0, *((c / width) * math.log2(c / width) for c in range(1, width + 1)))


def row_entropy(ones: int, width: int) -> Bits:
    """Entropy of a row with ones of its width features set, 0 log 0 taken as 0."""
    t = plogp(width)
    return (0.0 - t[ones]) - t[width - ones]


def gated_transmission(n11: int, ones_a: int, ones_b: int, width: int) -> Bits:
    """Mutual information of the table of these counts, zero unless positively associated.

    The gate is exact integer arithmetic on the counts; a gated table is
    0.0, unstored. Any other is ``table_score``'s, the sizes ascending.
    """
    if n11 * width <= ones_a * ones_b:
        return 0.0
    if ones_a <= ones_b:
        return table_score(n11, ones_a, ones_b, width)
    return table_score(n11, ones_b, ones_a, width)


@cache
def table_score(n11: int, small: int, large: int, width: int) -> Bits:
    """Mutual information of one positive table, scored once per process.

    The cell entropy adds its terms in ascending count order, so
    transposed tables round alike (an empty cell subtracts 0.0), and the
    row entropies add commutatively, so either order of the sizes gives
    this float. It is clamped at 0 against rounding.
    """
    t = plogp(width)
    c0, c1, c2, c3 = sorted((n11, small - n11, large - n11, width - small - large + n11))
    h = 0.0 - t[c0] - t[c1] - t[c2] - t[c3]
    value = ((0.0 - t[small]) - t[width - small]) + ((0.0 - t[large]) - t[width - large]) - h
    return value if value > 0.0 else 0.0


def affinity(a: ObjectInstance, b: ObjectInstance) -> Bits:
    """Transmission between two objects, zero unless positively associated."""
    if len(a.bits) != len(b.bits):
        raise ValueError(
            f"length mismatch: {a.label!r} has {len(a.bits)} bits, "
            f"{b.label!r} has {len(b.bits)}"
        )
    n11 = sum(map(operator.and_, a.bits, b.bits))
    return gated_transmission(n11, a.ones, b.ones, len(a.bits))
