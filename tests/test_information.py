"""Information measures: entropy, transmission, affinity, cohesion, contrast."""

from __future__ import annotations

import math
import random
from itertools import permutations

import pytest

from conftest import bits_corpus, cohesion, distinctiveness, make_category
from polyclust.information import (
    PairTable,
    affinity,
    category_validity,
    entropy,
    object_pair_table,
    transmission,
)
from polyclust.model import ConceptField, ObjectInstance


def kl_transmission(t: PairTable) -> float:
    """Independent oracle: mutual information in its KL-divergence form."""
    total = t.total
    rows = (t.n11 + t.n10, t.n01 + t.n00)
    cols = (t.n11 + t.n01, t.n10 + t.n00)
    cells = ((t.n11, 0, 0), (t.n10, 0, 1), (t.n01, 1, 0), (t.n00, 1, 1))
    out = 0.0
    for count, r, c in cells:
        if count:
            p = count / total
            out += p * math.log2(p / ((rows[r] / total) * (cols[c] / total)))
    return out


def pair(a: str, b: str) -> tuple[ObjectInstance, ObjectInstance]:
    corpus = bits_corpus([a, b])
    return corpus.objects[0], corpus.objects[1]


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([2, 2]) == 1.0

    def test_degenerate(self):
        assert entropy([4, 0]) == 0.0

    def test_one_in_four(self):
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert entropy([1, 3]) == pytest.approx(expected, abs=1e-15)
        assert entropy([1, 3]) == pytest.approx(0.811278, abs=5e-7)

    def test_empty_distribution(self):
        with pytest.raises(ValueError, match="empty distribution"):
            entropy([0, 0, 0])

    def test_negative_count(self):
        with pytest.raises(ValueError, match="negative"):
            entropy([2, -1])

    def test_range_bound(self):
        rng = random.Random(7)
        for _ in range(100):
            k = rng.randint(1, 8)
            counts = [rng.randint(0, 9) for _ in range(k)]
            if sum(counts) == 0:
                counts[0] = 1
            h = entropy(counts)
            assert -1e-12 <= h <= math.log2(k) + 1e-12


class TestPairTable:
    def test_identical(self):
        a, b = pair("1100", "1100")
        assert object_pair_table(a, b) == PairTable(2, 0, 0, 2)

    def test_half_overlap(self):
        a, b = pair("1100", "1010")
        assert object_pair_table(a, b) == PairTable(1, 1, 1, 1)

    def test_complements(self):
        a, b = pair("1100", "0011")
        assert object_pair_table(a, b) == PairTable(0, 2, 2, 0)

    def test_length_mismatch(self):
        a = bits_corpus(["1100"]).objects[0]
        b = bits_corpus(["110"]).objects[0]
        with pytest.raises(ValueError, match="length mismatch"):
            object_pair_table(a, b)


class TestTransmission:
    def test_identical_vectors(self):
        a, b = pair("1100", "1100")
        assert transmission(object_pair_table(a, b)) == 1.0

    def test_independence(self):
        a, b = pair("1100", "1010")
        assert transmission(object_pair_table(a, b)) == 0.0

    def test_perfect_negative_association(self):
        a, b = pair("1100", "0011")
        assert transmission(object_pair_table(a, b)) == 1.0

    def test_range_for_2x2(self):
        rng = random.Random(11)
        for _ in range(200):
            t = PairTable(*(rng.randint(0, 10) for _ in range(4)))
            if t.total == 0:
                continue
            assert 0.0 <= transmission(t) <= 1.0 + 1e-12

    def test_matches_kl_oracle(self):
        rng = random.Random(2024)
        for _ in range(200):
            width = rng.randint(1, 16)
            a, b = pair(
                "".join(str(rng.randint(0, 1)) for _ in range(width)),
                "".join(str(rng.randint(0, 1)) for _ in range(width)),
            )
            t = object_pair_table(a, b)
            assert transmission(t) == pytest.approx(kl_transmission(t), abs=1e-9)


class TestAffinity:
    def test_identical_positive(self):
        a, b = pair("1100", "1100")
        assert affinity(a, b) == 1.0

    def test_negative_association_gated(self):
        a, b = pair("1100", "0011")
        assert affinity(a, b) == 0.0

    def test_independence(self):
        a, b = pair("1100", "1010")
        assert affinity(a, b) == 0.0

    def test_symmetry_exact(self):
        rng = random.Random(3)
        for _ in range(100):
            width = rng.randint(1, 12)
            a, b = pair(
                "".join(str(rng.randint(0, 1)) for _ in range(width)),
                "".join(str(rng.randint(0, 1)) for _ in range(width)),
            )
            assert affinity(a, b) == affinity(b, a)

    def test_permutation_invariance(self):
        base_a = "110100"
        base_b = "100110"
        reference = affinity(*pair(base_a, base_b))
        for perm in permutations(range(6)):
            a = "".join(base_a[i] for i in perm)
            b = "".join(base_b[i] for i in perm)
            assert affinity(*pair(a, b)) == reference


class TestCohesion:
    def test_identical_pair(self):
        corpus = bits_corpus(["1100", "1100"])
        assert cohesion(corpus.objects) == 1.0

    def test_independent_pair(self):
        corpus = bits_corpus(["1100", "1010"])
        assert cohesion(corpus.objects) == 0.0

    def test_trio_mean_over_pairs(self):
        corpus = bits_corpus(["1100", "1100", "1010"])
        assert cohesion(corpus.objects) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_needs_two_members(self):
        corpus = bits_corpus(["1100"])
        with pytest.raises(ValueError, match="at least 2"):
            cohesion(corpus.objects)

    def test_duplicate_pair_equals_bit_entropy(self):
        rng = random.Random(13)
        for _ in range(50):
            width = rng.randint(1, 12)
            bits = "".join(str(rng.randint(0, 1)) for _ in range(width))
            corpus = bits_corpus([bits, bits])
            ones = bits.count("1")
            if 0 < ones < width:
                assert cohesion(corpus.objects) == entropy([ones, width - ones])
            else:
                assert cohesion(corpus.objects) == 0.0

    def test_member_order_irrelevant(self):
        corpus = bits_corpus(["1100", "1101", "1010", "0110"])
        objs = list(corpus.objects)
        assert cohesion(objs) == cohesion(list(reversed(objs)))


class TestDistinctiveness:
    def test_gated_complement_clusters(self):
        corpus = bits_corpus(["1100", "1100", "0011", "0011"])
        left = corpus.objects[:2]
        right = corpus.objects[2:]
        assert distinctiveness(left, right) == 0.0

    def test_identical_singletons(self):
        corpus = bits_corpus(["1100", "1100"])
        assert distinctiveness([corpus.objects[0]], [corpus.objects[1]]) == 1.0

    def test_independent_singletons(self):
        corpus = bits_corpus(["1100", "1010"])
        assert distinctiveness([corpus.objects[0]], [corpus.objects[1]]) == 0.0

    def test_overlap_rejected(self):
        corpus = bits_corpus(["1100", "1100", "1010"])
        with pytest.raises(ValueError, match="overlap"):
            distinctiveness(corpus.objects[:2], corpus.objects[1:])

    def test_argument_order_irrelevant(self):
        corpus = bits_corpus(["1100", "1101", "1011", "0111"])
        left = corpus.objects[:2]
        right = corpus.objects[2:]
        assert distinctiveness(left, right) == distinctiveness(right, left)


class TestCategoryValidity:
    def test_exclusive_feature(self):
        corpus = bits_corpus(["1100", "1100", "0011", "0011"])
        field = ConceptField(
            (make_category(corpus, (0, 1)), make_category(corpus, (2, 3))), ()
        )
        values = category_validity(field, corpus, 0)
        assert [p for _, p in values] == [1.0, 0.0]

    def test_split_feature(self):
        corpus = bits_corpus(["1100", "1100", "1011", "1011"])
        field = ConceptField(
            (make_category(corpus, (0, 1)), make_category(corpus, (2, 3))), ()
        )
        values = category_validity(field, corpus, 0)
        assert [p for _, p in values] == [0.5, 0.5]

    def test_absent_feature_undefined(self):
        corpus = bits_corpus(["1100", "1100", "0100"])
        field = ConceptField((make_category(corpus, (0, 1)),), (2,))
        with pytest.raises(ValueError, match="undefined validity"):
            category_validity(field, corpus, 3)
