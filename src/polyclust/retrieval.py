"""Retrieval by polymorphous rule or by seed object.

An m-of-n query admits any object possessing at least m of the n named
features, which is exactly the disjunction of all m-subsets written as
conjunctions. Seed retrieval ranks the rest of the corpus by affinity
to one chosen object.

Both validate the corpus first, once per corpus, and raise the same
CorpusError as ``engine.run``. Rule queries scan every object and
count its query features with ``ObjectInstance.count``, the same count
that gives a category rule its m and its false alarms. Seed queries
read the corpus's feature index (``Corpus.feature_index``), which the
first seed query builds and the corpus caches: only objects that share
a feature with the seed are scored, because every other object's
affinity to it is exactly 0. The seed's size is fixed for the query, so
an object's affinity, which ``information.gated_transmission`` takes
from these counts, depends only on its n11 and its own size. So each
query puts the objects into one bucket per distinct (n11, size) table,
scores each bucket once, and fills its answer bucket by bucket; it
ranks tables, not objects. The seed's features are read by
``ObjectInstance.present``, like every row of the index.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable

from . import information
from .model import Corpus


@dataclass(frozen=True)
class PolymorphousQuery:
    """An "at least m of these distinct features" query, checked when built."""

    m: int
    feature_set: tuple[int, ...]

    def __post_init__(self) -> None:
        features = self.feature_set
        if not features:
            raise ValueError("query needs at least one feature label")
        if min(features) < 0 or len(set(features)) < len(features):
            raise ValueError(f"feature indices {features} are not distinct and non-negative")
        if not 1 <= self.m <= len(features):
            raise ValueError(f"m={self.m} outside [1, {len(features)}]")

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
    corpus.validate()
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

    n11 is counted, through the feature index, for every object that
    shares a feature with the seed; the other three cells of its 2x2
    table follow from the two feature counts. So the affinity depends
    only on (n11, the object's size): the objects are put into one
    bucket per distinct pair, and ``gated_transmission`` is called once
    per bucket. The answer is filled from the buckets in descending
    affinity; buckets of equal affinity are merged and their ids taken
    in ascending order. An object that shares no feature has n11 = 0,
    so its determinant is -n10*n01 <= 0 and its affinity exactly 0.0:
    such objects fill the answer last, in id order.
    """
    if not 0 <= seed < len(corpus):
        raise ValueError(f"seed id {seed} outside the corpus")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    postings, sizes = corpus.feature_index
    width = len(corpus.space)
    present = corpus.objects[seed].present()
    shared = Counter(chain.from_iterable(map(postings.__getitem__, present)))
    del shared[seed]
    own = sizes[seed]
    buckets: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
    for j, n11 in shared.items():
        buckets[n11, sizes[j]].append(j)
    by_affinity: defaultdict[float, list[int]] = defaultdict(list)
    for (n11, b), ids in buckets.items():
        aff = information.gated_transmission(n11, own, b, width)
        if aff > 0.0:
            by_affinity[aff].extend(ids)
    top: list[tuple[int, float]] = []
    for aff in sorted(by_affinity, reverse=True):
        top.extend((j, aff) for j in sorted(by_affinity[aff])[: k - len(top)])
        if len(top) == k:
            return tuple(top)
    taken = {j for j, _ in top}
    zeros = (j for j in range(len(corpus)) if j != seed and j not in taken)
    top.extend((j, 0.0) for j in islice(zeros, k - len(top)))
    return tuple(top)
