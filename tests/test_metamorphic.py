"""Exact metamorphic witnesses: corpus transformations that keep every affinity.

Affinity depends only on ratios of counts, so three transformations of a
corpus leave every affinity the same float, and with it the trace, every
cohesion and every margin:

- repeating every column k times multiplies each count by k, and
  (k·c)/(k·F) rounds to the same float as c/F; a rule's m becomes k·m;
- permuting the columns permutes the features a rule lists;
- complementing every bit swaps the cells of each pair's table, which
  keeps the determinant's sign, and adds the two row-entropy terms in
  the other order, which IEEE addition does not change.

The relations need no oracle, so they are compared with ``==``. With
k = 37, an n11 passes 255, so a seed query's counter carries into its
ninth plane. They also scale past the per-bit oracles: a keyword corpus
of the retrieval benchmark's size (n 2000) keeps every seed answer
under a repeat and a permutation, though each repeat scales the keys of
the corpus's table memo (``Corpus.transmission``) by k.

Rule queries keep their answers too, on the planted cases and on that
keyword corpus: after a k-fold repeat, a query naming one copy of each
feature matches the same objects with the same counts, and one naming
all k copies at m·k scales every count by k, which keeps the order; a
permuted query counts the same bits. At k = 37 an all-copies query
admits only objects that hold at least 37 of its features, so a counter
that saturates early fails.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Iterator, Sequence

import pytest

from conftest import bits_corpus, keyword_corpus, keyword_rows
from polyclust import run
from polyclust.engine import affinity_matrix
from polyclust.model import Corpus, Parameters
from polyclust.retrieval import PolymorphousQuery, retrieve, retrieve_by_seed

CASES = 60


def planted_cases() -> Iterator[tuple[list[str], Parameters]]:
    """Seeded corpora of noisy copies of a few prototypes, at random thresholds."""
    rng = random.Random("metamorphic")
    for _ in range(CASES):
        n = rng.randint(6, 20)
        width = rng.randint(4, 12)
        prototypes = [[rng.random() < 0.5 for _ in range(width)] for _ in range(rng.randint(2, 4))]
        noise = rng.uniform(0.0, 0.25)
        rows = [
            "".join("1" if bit != (rng.random() < noise) else "0" for bit in rng.choice(prototypes))
            for _ in range(n)
        ]
        params = Parameters(rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.3), rng.uniform(0.2, 1.0))
        yield rows, params


def transformed(rows: Sequence[str], column: Callable[[str], str]) -> Corpus:
    return bits_corpus([column(row) for row in rows])


def seed_answers(corpus: Corpus) -> list:
    return [retrieve_by_seed(corpus, seed, len(corpus)) for seed in range(len(corpus))]


def assert_same_run(got, want) -> None:
    assert got.trace == want.trace
    assert got.validity == want.validity
    assert got.field.unclustered == want.field.unclustered
    assert [(c.members, c.cohesion, c.best_member) for c in got.field.categories] == [
        (c.members, c.cohesion, c.best_member) for c in want.field.categories
    ]


@pytest.mark.parametrize("k", [2, 3, 37])
def test_repeating_every_column_keeps_affinities_and_scales_rules(k):
    planes = 0
    for rows, params in planted_cases():
        corpus = bits_corpus(rows)
        repeated = transformed(rows, lambda row: "".join(c * k for c in row))
        assert affinity_matrix(repeated) == affinity_matrix(corpus)
        want, got = run(corpus, params), run(repeated, params)
        assert_same_run(got, want)

        def block(features):
            return tuple(f * k + j for f in features for j in range(k))

        for old, new in zip(want.field.categories, got.field.categories):
            if old.rule is None:
                assert new.rule is None
                continue
            assert new.rule.m == k * old.rule.m
            assert new.rule.feature_set == block(old.rule.feature_set)
            assert new.rule.necessary == block(old.rule.necessary)
            assert new.rule.sufficient == block(old.rule.sufficient)
            assert new.rule.false_alarm_rate == old.rule.false_alarm_rate
        assert seed_answers(repeated) == seed_answers(corpus)
        shared = max(
            sum(a == b == "1" for a, b in zip(x, y)) for i, x in enumerate(rows) for y in rows[i + 1 :]
        )
        planes = max(planes, (k * shared).bit_length())
    if k == 37:
        assert planes >= 9


def test_permuting_the_columns_keeps_affinities_and_permutes_rules():
    rng = random.Random("metamorphic-permute")
    for rows, params in planted_cases():
        order = list(range(len(rows[0])))
        rng.shuffle(order)  # new column j holds old column order[j]
        where = {old: new for new, old in enumerate(order)}
        corpus = bits_corpus(rows)
        permuted = transformed(rows, lambda row: "".join(row[f] for f in order))
        assert affinity_matrix(permuted) == affinity_matrix(corpus)
        want, got = run(corpus, params), run(permuted, params)
        assert_same_run(got, want)

        def moved(features):
            return sorted(where[f] for f in features)

        for old, new in zip(want.field.categories, got.field.categories):
            if old.rule is None:
                assert new.rule is None
                continue
            assert new.rule.m == old.rule.m
            assert sorted(new.rule.feature_set) == moved(old.rule.feature_set)
            assert list(new.rule.necessary) == moved(old.rule.necessary)
            assert list(new.rule.sufficient) == moved(old.rule.sufficient)
            assert new.rule.false_alarm_rate == old.rule.false_alarm_rate
        assert seed_answers(permuted) == seed_answers(corpus)


def test_complementing_every_bit_keeps_affinities():
    flip = str.maketrans("01", "10")
    formed = 0
    for rows, params in planted_cases():
        corpus = bits_corpus(rows)
        complemented = transformed(rows, lambda row: row.translate(flip))
        assert affinity_matrix(complemented) == affinity_matrix(corpus)
        want, got = run(corpus, params), run(complemented, params)
        assert_same_run(got, want)
        assert seed_answers(complemented) == seed_answers(corpus)
        formed += bool(want.field.categories)
    # the relations are tested on fields that hold categories, not only on empty ones
    assert formed >= CASES // 2


def test_a_retrieval_sized_keyword_corpus_keeps_its_seed_answers():
    vocab = 1536
    rows = keyword_rows(2000, 2000, vocab, sizes=(6, 14))
    order = list(range(vocab))
    random.Random("metamorphic-keywords").shuffle(order)  # old column f moves to order[f]
    corpus = keyword_corpus(rows, vocab)
    repeated = keyword_corpus([[2 * f + j for f in row for j in (0, 1)] for row in rows], 2 * vocab)
    permuted = keyword_corpus([[order[f] for f in row] for row in rows], vocab)
    want = [retrieve_by_seed(corpus, seed, 20) for seed in range(len(corpus))]
    for other in (repeated, permuted):
        assert [retrieve_by_seed(other, seed, 20) for seed in range(len(corpus))] == want
    tables = vars(corpus)["_transmissions"]
    assert {(2 * n11, 2 * a, 2 * b) for n11, a, b in tables} == set(vars(repeated)["_transmissions"])
    assert len(tables) > 100


def rule_corpora() -> Iterator[tuple[list[list[int]], int]]:
    """The planted cases and the retrieval-sized keyword corpus, as feature-id rows and a width."""
    for rows, _ in planted_cases():
        yield [[f for f, bit in enumerate(row) if bit == "1"] for row in rows], len(rows[0])
    yield keyword_rows(2000, 2000, 1536, sizes=(6, 14)), 1536


def rule_queries(rows: Sequence[Sequence[int]], rng: random.Random) -> list[PolymorphousQuery]:
    """40 queries, each naming 1 to 5 features of one object, with m uniform in [1, size]."""
    out = []
    while len(out) < 40:
        pool = rows[rng.randrange(len(rows))]
        if pool:
            size = rng.randint(1, min(5, len(pool)))
            out.append(PolymorphousQuery(rng.randint(1, size), tuple(rng.sample(pool, size))))
    return out


def rule_answers(corpus: Corpus, queries: Sequence[PolymorphousQuery], seen: Counter) -> list:
    answers = [retrieve(corpus, q) for q in queries]
    for q, answer in zip(queries, answers):
        counts = {corpus.objects[i].count(q.feature_set) for i in answer}
        seen["m > 1"] += q.m > 1
        seen["two or more counts in one answer"] += len(counts) > 1
    return answers


@pytest.mark.parametrize("k", [2, 37])
def test_repeating_every_column_keeps_rule_answers(k):
    """One copy of each feature at m, or all k copies at k·m: the same ids in the same order."""
    rng = random.Random(f"metamorphic-rules:{k}")
    seen: Counter[str] = Counter()
    for rows, width in rule_corpora():
        queries = rule_queries(rows, rng)
        want = rule_answers(keyword_corpus(rows, width), queries, seen)
        repeated_rows = [[k * f + j for f in row for j in range(k)] for row in rows]
        repeated = keyword_corpus(repeated_rows, k * width)
        one_copy = [
            PolymorphousQuery(q.m, tuple(k * f + rng.randrange(k) for f in q.feature_set))
            for q in queries
        ]
        every_copy = [
            PolymorphousQuery(k * q.m, tuple(k * f + j for f in q.feature_set for j in range(k)))
            for q in queries
        ]
        assert [retrieve(repeated, q) for q in one_copy] == want
        assert [retrieve(repeated, q) for q in every_copy] == want
        seen["answers of 100+ ids"] += max(map(len, want)) >= 100
    assert min(seen.values()) > 0 and len(seen) == 3, seen


def test_permuting_the_columns_keeps_rule_answers():
    rng = random.Random("metamorphic-rules-permute")
    seen: Counter[str] = Counter()
    for rows, width in rule_corpora():
        order = list(range(width))
        rng.shuffle(order)  # old column f moves to order[f]
        queries = rule_queries(rows, rng)
        want = rule_answers(keyword_corpus(rows, width), queries, seen)
        permuted = keyword_corpus([[order[f] for f in row] for row in rows], width)
        moved = [PolymorphousQuery(q.m, tuple(order[f] for f in q.feature_set)) for q in queries]
        assert [retrieve(permuted, q) for q in moved] == want
    assert min(seen.values()) > 0 and len(seen) == 2, seen
