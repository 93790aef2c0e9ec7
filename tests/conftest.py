"""Shared fixtures, corpus-building helpers and object-level oracles.

``cohesion``, ``distinctiveness`` and ``best_member`` compute a
category's statistics from its objects, one ``information.affinity``
call per pair. The program computes the same statistics once, over the
affinity matrix, in ``engine``; these are the references it is checked
against.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import pytest

from polyclust import datasets, information
from polyclust.information import Bits, affinity
from polyclust.model import Category, Corpus, FeatureSpace, ObjectInstance


def bits_corpus(
    patterns: Sequence[str],
    labels: Optional[Sequence[str]] = None,
    features: Optional[Sequence[str]] = None,
) -> Corpus:
    """Corpus from bit strings like "1100", with auto feature names f0.."""
    width = len(patterns[0])
    names = list(features) if features else [f"f{i}" for i in range(width)]
    space = FeatureSpace(tuple((name, name) for name in names))
    labs = list(labels) if labels else [f"o{i}" for i in range(len(patterns))]
    objects = tuple(
        ObjectInstance(i, labs[i], tuple(int(c) for c in pattern))
        for i, pattern in enumerate(patterns)
    )
    return Corpus(space, objects)


def cohesion(members: Iterable[ObjectInstance]) -> Bits:
    """Mean affinity over all unordered member pairs."""
    objs = sorted(members, key=lambda o: o.id)
    if len(objs) < 2:
        raise ValueError("cohesion needs at least 2 members")
    total = 0.0
    pairs = 0
    for i, a in enumerate(objs):
        for b in objs[i + 1 :]:
            total += affinity(a, b)
            pairs += 1
    return total / pairs


def distinctiveness(c: Iterable[ObjectInstance], other: Iterable[ObjectInstance]) -> Bits:
    """Mean affinity over all cross pairs between two disjoint member sets."""
    left = {o.id: o for o in c}
    right = {o.id: o for o in other}
    if not left or not right:
        raise ValueError("distinctiveness needs two non-empty member sets")
    overlap = set(left) & set(right)
    if overlap:
        raise ValueError(f"overlapping member sets: ids {sorted(overlap)}")
    pairs = sorted((min(i, j), max(i, j)) for i in left for j in right)
    by_id = {**left, **right}
    total = 0.0
    for i, j in pairs:
        total += affinity(by_id[i], by_id[j])
    return total / len(pairs)


def best_member(category: Category, corpus: Corpus) -> int:
    """The member with maximal mean affinity to the others; ties go to the lowest id."""
    ids = category.members

    def mean_affinity(i: int) -> float:
        total = 0.0
        for j in ids:
            if j != i:
                total += information.affinity(corpus.objects[i], corpus.objects[j])
        return total / (len(ids) - 1)

    return min(ids, key=lambda i: (-mean_affinity(i), i))


def make_category(corpus: Corpus, ids: Sequence[int]) -> Category:
    """Category with cohesion and best member recomputed from scratch."""
    members = tuple(sorted(ids))
    w = cohesion([corpus.objects[i] for i in members])
    provisional = Category(members, w, members[0])
    return Category(members, w, best_member(provisional, corpus))


@pytest.fixture(scope="session")
def shapes_corpus() -> Corpus:
    return datasets.shapes_corpus()


@pytest.fixture(scope="session")
def abstracts_corpus() -> Corpus:
    return datasets.abstracts_corpus()
