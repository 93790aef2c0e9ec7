"""Retrieval by polymorphous rule or by seed object.

An m-of-n query admits any object possessing at least m of the n named
features, which is exactly the disjunction of all m-subsets written as
conjunctions. Seed retrieval ranks the rest of the corpus by affinity
to one chosen object.

Both read a corpus, which checked its invariants when it was built. Rule
queries name features as ``FeatureSpace.index_of`` resolves them
(display labels, then the other forms, then up to case) and count each
object's query features with ``ObjectInstance.count``, in one pass that
groups the ids by count; the groups, n down to m, are the answer,
unsorted. Seed queries group the other objects by n11, the number of
the seed's features they share, with the corpus's bit-sliced counter
(``Corpus.by_count``) over its cached feature bitmaps. The seed's size
is fixed for the query, so an object's affinity depends only on its n11
and its own size, whose groups the same counter gives
(``Corpus.size_groups``): a query ranks tables, not objects, and asks the
kernel, ``information.gated_transmission``, once per table, n11 = 0
included. Its gate gives 0.0, unstored, to every table not positively
associated; its memo keeps every positive table scored in the process,
so a query that follows a clustering job on its corpus scores no table
(the README quotes the benchmark's lookup counts).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from . import information
from .model import Corpus, as_int, check_m_of_n


@dataclass(frozen=True)
class PolymorphousQuery:
    """An "at least m of these distinct features" query, checked when built."""

    m: int
    feature_set: tuple[int, ...]

    def __post_init__(self) -> None:
        check_m_of_n(self, 1)

    @classmethod
    def resolve(cls, corpus: Corpus, m: int, labels: Iterable[str]) -> "PolymorphousQuery":
        if isinstance(labels, str):
            raise TypeError(f"labels must be an iterable of names, not the string {labels!r}")
        indices: list[int] = []
        for name in labels:
            idx = corpus.space.index_of(name)  # raises naming the label
            if idx not in indices:
                indices.append(idx)
        return cls(m, tuple(indices))


def retrieve(corpus: Corpus, query: PolymorphousQuery) -> tuple[int, ...]:
    """All matching object ids, by descending query-feature count, then id.

    Each id of count at least m joins its count's group in id order, and the
    answer reads the groups from n down to m. A feature index at or past the
    corpus width raises ValueError naming it.
    """
    m, features = query.m, query.feature_set
    width = len(corpus.space)
    if max(features) >= width:
        past = ", ".join(str(f) for f in features if f >= width)
        raise ValueError(f"feature index {past} out of range for {width} features")
    groups: list[list[int]] = [[] for _ in range(len(features) + 1)]
    for obj in corpus.objects:
        if (c := obj.count(features)) >= m:
            groups[c].append(obj.id)
    return tuple(chain.from_iterable(reversed(groups[m:])))


def retrieve_by_seed(
    corpus: Corpus, seed: int, k: int
) -> tuple[tuple[int, float], ...]:
    """Top-k non-seed objects by affinity to the seed, ties by id.

    ``Corpus.by_count`` groups the other objects by n11, highest first,
    and each group is ANDed with ``Corpus.size_groups`` into one bucket
    per distinct (n11, size) table, whose affinity the kernel gives; the
    other three cells of a table follow from the two sizes. A group
    leaves the size groups once every one of its objects is in a bucket.
    The gate gives 0.0, unscored, to every table not positively
    associated, n11 = 0 (determinant -n10*n01 <= 0) among them.
    Buckets of equal affinity are ORed together, and one walk reads the
    answer: buckets in descending affinity, each lowest id first, until
    k are taken. A seed or k that is a bool or not an integer raises TypeError.
    """
    if type(seed) is not int or type(k) is not int:
        seed, k = as_int(seed, "seed"), as_int(k, "k")
    if not 0 <= seed < len(corpus):
        raise ValueError(f"seed id {seed} outside the corpus")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    present = corpus.objects[seed].present()
    own, size_groups = len(present), corpus.size_groups
    score, width = information.gated_transmission, len(corpus.space.features)
    others = ((1 << len(corpus)) - 1) ^ (1 << seed)
    by_affinity: defaultdict[float, int] = defaultdict(int)
    for n11, ids in corpus.by_count(present, others):
        for size, of_size in size_groups:
            bucket = ids & of_size
            if bucket:
                by_affinity[score(n11, own, size, width)] |= bucket
                ids ^= bucket
                if not ids:
                    break
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
