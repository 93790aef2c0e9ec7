"""Shannon information measures over binary object vectors.

Everything is in bits (log base 2). The association between two objects
is the mutual information of their 2x2 feature co-occurrence table,
gated to zero when the table shows no positive association: categories
are held together by co-presence, not by anti-correlation. The table
follows from four counts: the features both objects have (n11), each
object's number of features (``ObjectInstance.ones``) and the width.
``gated_transmission`` is the one kernel: it decides the gate on these
counts, as ints (the determinant n11*n00 - n10*n01 equals n11*width -
ones_a*ones_b), and computes the row, column and cell entropies
straight from them; no 2x2 table is built. Every entropy term is
``p·log2 p`` of a count c over the width, so both read it from
``plogp(width)``, one tuple per width with ``plogp[0] = 0.0``, built on
first use and kept for the process (about 32 bytes a count). No
logarithm is taken per call, and each term is the float that
``(c / width) * log2(c / width)`` computed in place gives. Seed queries
reach the kernel through ``Corpus.transmission``, which scores each
table once per corpus. ``row_entropy`` is the entropy of one row from
its two counts, ``(0.0 - plogp[ones]) - plogp[width - ones]``, and
``info`` prints it per object.
Cohesion, cross affinity and the prototype, means of these affinities
over sets of pairs, all come from one kernel over the affinity matrix,
``engine._mean``.
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

    The gate is exact integer arithmetic on the counts. The cell entropy
    sums its terms in ascending count order, so transposed tables round
    identically; an empty cell subtracts ``plogp[0] = 0.0``, which leaves
    the sum as it is. The row entropies are ``row_entropy``'s, written
    out. The result is clamped at 0 against rounding.
    """
    if n11 * width <= ones_a * ones_b:
        return 0.0
    t = plogp(width)
    c0, c1, c2, c3 = sorted((n11, ones_a - n11, ones_b - n11, width - ones_a - ones_b + n11))
    h = 0.0 - t[c0] - t[c1] - t[c2] - t[c3]
    value = ((0.0 - t[ones_a]) - t[width - ones_a]) + ((0.0 - t[ones_b]) - t[width - ones_b]) - h
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
