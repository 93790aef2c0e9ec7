"""Information measures: entropy, transmission, affinity, cohesion, contrast."""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from itertools import permutations

import pytest

from conftest import (
    PairTable,
    bits_corpus,
    cohesion,
    distinctiveness,
    entropy,
    keyword_corpus,
    keyword_rows,
    object_pair_table,
    table_gated_transmission,
    transmission,
)
from polyclust.information import affinity, gated_transmission, row_entropy, table_score
from polyclust.model import ObjectInstance
from polyclust.retrieval import retrieve_by_seed


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

    def test_row_entropy_equals_the_two_count_entropy(self):
        for width in range(1, 301):
            for ones in range(width + 1):
                got, want = row_entropy(ones, width), entropy([ones, width - ones])
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestPLogPTable:
    """The p·log2 p terms of a row's entropy, computed where they are used."""

    @pytest.mark.parametrize("width", [40, 580, 1536])
    def test_row_entropy_bit_for_bit_at_the_benchmark_widths(self, width):
        for ones in range(width + 1):
            got, want = row_entropy(ones, width), entropy([ones, width - ones])
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), ones

    def test_the_table_memo_fills_across_corpora(self):
        table_score.cache_clear()
        width = 97
        assert gated_transmission(5, 10, 12, width) > 0.0
        for seed in (1, 2):
            scored = table_score.cache_info().misses
            corpus = keyword_corpus(keyword_rows(seed, 40, width, sizes=(3, 12)), width)
            for obj in corpus.objects:
                retrieve_by_seed(corpus, obj.id, 5)
            assert table_score.cache_info().misses > scored + 1


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


class TestTableFromCounts:
    """``PairTable.of`` builds from four counts the table the per-bit oracle fills."""

    def test_equals_the_per_bit_oracle(self):
        rng = random.Random(1989)
        for _ in range(40):
            width = rng.randint(1, 24)

            def row(density: float) -> str:
                return "".join("1" if rng.random() < density else "0" for _ in range(width))

            sparse, dense = row(0.1), row(0.9)
            rows = [sparse, dense, "0" * width, "1" * width, sparse, row(0.5)]
            objects = bits_corpus(rows).objects
            for a in objects:
                for b in objects:
                    n11 = len(set(a.present()) & set(b.present()))
                    table = object_pair_table(a, b)
                    assert PairTable.of(n11, a.ones, b.ones, width) == table
                    assert affinity(a, b) == gated_transmission(n11, a.ones, b.ones, width)
                    assert affinity(a, b) == table_gated_transmission(table)

    def test_gate_on_counts_equals_the_table_gate_exhaustively(self):
        """Every table of width 1..40 and seeded tables up to width 2000, bit for bit."""

        def check(n11: int, ones_a: int, ones_b: int, width: int) -> int:
            table = PairTable.of(n11, ones_a, ones_b, width)
            got = gated_transmission(n11, ones_a, ones_b, width)
            want = table_gated_transmission(table)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), table
            if table.determinant == 0:
                assert got == 0.0 and math.copysign(1.0, got) == 1.0, table
            return (table.determinant > 0) - (table.determinant < 0)

        signs: Counter[int] = Counter()
        for width in range(1, 41):
            for ones_a in range(width + 1):
                for ones_b in range(width + 1):
                    for n11 in range(max(0, ones_a + ones_b - width), min(ones_a, ones_b) + 1):
                        signs[check(n11, ones_a, ones_b, width)] += 1
        rng = random.Random(1208)
        for _ in range(100_000):
            width = rng.randint(1, 2000)
            ones_a, ones_b = rng.randint(0, width), rng.randint(0, width)
            n11 = rng.randint(max(0, ones_a + ones_b - width), min(ones_a, ones_b))
            signs[check(n11, ones_a, ones_b, width)] += 1
        assert set(signs) == {-1, 0, 1}, signs
        # independent rows: width 4, two ones each, one shared
        assert PairTable.of(1, 2, 2, 4).determinant == 0
        assert gated_transmission(1, 2, 2, 4) == 0.0

    def test_affinity_names_a_length_mismatch(self):
        a = bits_corpus(["1100"], labels=["a"]).objects[0]
        b = bits_corpus(["110"], labels=["b"]).objects[0]
        message = "length mismatch: 'a' has 4 bits, 'b' has 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            affinity(a, b)


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
