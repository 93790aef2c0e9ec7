"""m-of-n query matching, ranking, seed retrieval and the feature index."""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain, combinations, product
from typing import Iterator

import pytest

from conftest import (
    bit_ones,
    bits_corpus,
    keyword_corpus,
    keyword_rows,
    object_pair_table,
    planted_corpus,
    retrieve_by_seed_scan,
    retrieve_sorted_scan,
    scored_tables,
)
from test_description import two_of_three_field
from test_golden import random_cases
from test_model import broken_inputs
from polyclust import datasets, information, run
from polyclust.model import Corpus, CorpusError, ObjectInstance, Parameters, PolymorphousRule
from polyclust.retrieval import PolymorphousQuery, retrieve, retrieve_by_seed


def subsets_corpus(n: int):
    """One document per subset of n features, labeled by its bit string."""
    patterns = ["".join(map(str, bits)) for bits in product((0, 1), repeat=n)]
    return bits_corpus(patterns, labels=[f"d{p}" for p in patterns])


class TestMatch:
    def test_two_of_three_with_two_features(self):
        corpus = bits_corpus(["110"], features=["a", "b", "c"])
        query = PolymorphousQuery.resolve(corpus, 2, ("a", "b", "c"))
        assert corpus.objects[0].count(query.feature_set) == 2 >= query.m

    def test_two_of_three_with_one_feature(self):
        corpus = bits_corpus(["100"], features=["a", "b", "c"])
        query = PolymorphousQuery.resolve(corpus, 2, ("a", "b", "c"))
        assert corpus.objects[0].count(query.feature_set) == 1 < query.m

    def test_equals_dnf_expansion_exhaustively(self):
        for n in range(1, 6):
            corpus = subsets_corpus(n)
            feature_names = [f"f{i}" for i in range(n)]
            for m in range(1, n + 1):
                query = PolymorphousQuery.resolve(corpus, m, feature_names)
                for obj in corpus.objects:
                    dnf = any(
                        all(obj.bits[f] for f in combo)
                        for combo in combinations(range(n), m)
                    )
                    assert (obj.count(query.feature_set) >= m) == dnf

    def test_monotone_under_added_features(self):
        corpus = subsets_corpus(5)
        query = PolymorphousQuery.resolve(corpus, 2, ("f0", "f2", "f4"))
        for obj in corpus.objects:
            if obj.count(query.feature_set) < query.m:
                continue
            for flip in range(5):
                richer_bits = tuple(
                    1 if f == flip else b for f, b in enumerate(obj.bits)
                )
                richer = bits_corpus(["".join(map(str, richer_bits))]).objects[0]
                assert richer.count(query.feature_set) >= query.m

    def test_unresolved_label_names_it(self):
        corpus = bits_corpus(["10"], features=["a", "b"])
        with pytest.raises(CorpusError, match="missing-label"):
            PolymorphousQuery.resolve(corpus, 1, ("a", "missing-label"))

    def test_m_bounds(self):
        corpus = bits_corpus(["111"], features=["a", "b", "c"])
        with pytest.raises(ValueError, match="m=0"):
            PolymorphousQuery.resolve(corpus, 0, ("a", "b"))
        with pytest.raises(ValueError, match="m=4"):
            PolymorphousQuery.resolve(corpus, 4, ("a", "b", "c"))

    def test_no_labels(self):
        corpus = bits_corpus(["111"], features=["a", "b", "c"])
        with pytest.raises(ValueError, match="at least one feature label"):
            PolymorphousQuery.resolve(corpus, 1, ())

    def test_repeated_labels_resolve_once(self):
        corpus = bits_corpus(["100"], features=["a", "b", "c"])
        query = PolymorphousQuery.resolve(corpus, 1, ("a", "a", "b"))
        assert query == PolymorphousQuery(1, (0, 1))

    def test_a_bare_string_is_not_read_as_one_letter_names(self):
        corpus = bits_corpus(["110", "011", "101"], features=["a", "b", "c"])
        with pytest.raises(TypeError, match="not the string 'ab'"):
            PolymorphousQuery.resolve(corpus, 1, "ab")
        assert PolymorphousQuery.resolve(corpus, 1, ["a", "b"]) == PolymorphousQuery(1, (0, 1))


class TestRuleAndQueryShareOneCheck:
    """A rule and a query reject a malformed m-of-n form in the same words.

    Only m's lower bound differs: a rule allows m = 0, a query needs 1.
    """

    @pytest.mark.parametrize(
        "m, features, rule_message",
        [
            (1, (), "an m-of-n rule needs at least one feature label"),
            (1, (0, 0), "feature indices (0, 0) are not distinct and non-negative"),
            (1, (2, 0, 2), "feature indices (2, 0, 2) are not distinct and non-negative"),
            (1, (-1,), "feature indices (-1,) are not distinct and non-negative"),
            (1, (3, -2), "feature indices (3, -2) are not distinct and non-negative"),
            (3, (0, 1), "m=3 outside [0, 2]"),
            (5, (4,), "m=5 outside [0, 1]"),
        ],
        ids=["empty", "repeated", "repeated-of-three", "negative", "negative-second",
             "m-past-n", "m-past-one"],
    )
    def test_same_message_but_for_the_lower_bound(self, m, features, rule_message):
        with pytest.raises(ValueError) as rule_error:
            PolymorphousRule(m, features, (), (), 0.0)
        with pytest.raises(ValueError) as query_error:
            PolymorphousQuery(m, features)
        assert str(rule_error.value) == rule_message
        assert str(query_error.value) == rule_message.replace("outside [0, ", "outside [1, ")


class Index:
    """An integer type of its own, read through ``operator.index`` only."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


class TestIntegerArguments:
    """m, feature ids, seed and k are read through ``operator.index``; bools and floats are refused.

    The TypeError names the value before any work, also where the value
    is out of range too.
    """

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda c: retrieve_by_seed(c, 0, 2.5), "k must be an int, not 2.5"),
            (lambda c: retrieve_by_seed(c, 0, False), "k must be an int, not False"),
            (lambda c: retrieve_by_seed(c, True, 3), "seed must be an int, not True"),
            (lambda c: retrieve_by_seed(c, 1.0, 3), "seed must be an int, not 1.0"),
            (lambda c: retrieve_by_seed(c, 99.5, 0), "seed must be an int, not 99.5"),
            (lambda c: PolymorphousQuery(1.5, (0, 1, 2)), "m must be an int, not 1.5"),
            (lambda c: PolymorphousQuery(True, (0, 1)), "m must be an int, not True"),
            (lambda c: PolymorphousQuery(1, (0.0, 1)), "a feature index must be an int, not 0.0"),
            (lambda c: PolymorphousQuery(9, (0, -1.0)), "a feature index must be an int, not -1.0"),
            (lambda c: PolymorphousQuery.resolve(c, 2.0, ("a", "b")), "m must be an int, not 2.0"),
            (lambda c: PolymorphousRule(1, (0, True), (), (), 0.0), "a feature index must be an int, not True"),
        ],
        ids=["k-float", "k-bool", "seed-bool", "seed-float", "seed-float-out-of-range",
             "m-float", "m-bool", "feature-float", "feature-float-out-of-range",
             "resolve-m-float", "rule-feature-bool"],
    )
    def test_wrong_types_raise_type_error_naming_the_value(self, call, message):
        corpus = bits_corpus(["110", "011", "111"], features=["a", "b", "c"])
        with pytest.raises(TypeError) as error:
            call(corpus)
        assert str(error.value) == message

    def test_integer_types_are_read_as_ints(self):
        corpus = bits_corpus(["110", "011", "111"], features=["a", "b", "c"])
        assert retrieve_by_seed(corpus, Index(0), Index(2)) == retrieve_by_seed(corpus, 0, 2)
        query = PolymorphousQuery(Index(2), [Index(0), 1])
        assert query == PolymorphousQuery(2, (0, 1)) and type(query.m) is int
        assert retrieve(corpus, query) == (0, 2)


class TestQueryInvariants:
    """A query built directly is held to the same checks as a resolved one."""

    @pytest.mark.parametrize(
        "m, features, message",
        [
            (1, (), "at least one feature label"),
            (2, (0, 0), r"\(0, 0\) are not distinct"),
            (1, (-1,), "not distinct and non-negative"),
            (1, (2, -1), "not distinct and non-negative"),
            (5, (0, 1), r"m=5 outside \[1, 2\]"),
            (0, (0,), r"m=0 outside \[1, 1\]"),
        ],
    )
    def test_rejected_at_construction(self, m, features, message):
        with pytest.raises(ValueError, match=message):
            PolymorphousQuery(m, features)

    def test_index_past_the_width_is_named(self):
        corpus = bits_corpus(["100", "111"], features=["a", "b", "c"])
        with pytest.raises(ValueError, match="feature index 5 out of range for 3 features"):
            retrieve(corpus, PolymorphousQuery(1, (5,)))
        with pytest.raises(ValueError, match="feature index 3, 4 out of range"):
            retrieve(corpus, PolymorphousQuery(1, (0, 3, 4)))

    def test_a_direct_query_answers_as_the_resolved_one(self):
        corpus = bits_corpus(["100", "110", "011"], features=["a", "b", "c"])
        direct = PolymorphousQuery(2, (0, 1))
        assert direct == PolymorphousQuery.resolve(corpus, 2, ("a", "b"))
        assert retrieve(corpus, direct) == (1,)
        assert retrieve(corpus, PolymorphousQuery(1, (2,))) == (2,)


class TestRetrieve:
    def test_full_holder_ranks_first(self):
        corpus = bits_corpus(
            ["111", "110", "011", "000"], features=["a", "b", "c"]
        )
        query = PolymorphousQuery.resolve(corpus, 2, ("a", "b", "c"))
        assert retrieve(corpus, query) == (0, 1, 2)

    def test_no_match_is_empty(self):
        corpus = bits_corpus(["100", "010"], features=["a", "b", "c"])
        query = PolymorphousQuery.resolve(corpus, 2, ("a", "b", "c"))
        assert retrieve(corpus, query) == ()

    def test_every_result_satisfies_match(self):
        rng = random.Random(31)
        corpus = subsets_corpus(5)
        for _ in range(20):
            size = rng.randint(1, 5)
            names = rng.sample([f"f{i}" for i in range(5)], size)
            query = PolymorphousQuery.resolve(corpus, rng.randint(1, size), names)
            for obj_id in retrieve(corpus, query):
                assert corpus.objects[obj_id].count(query.feature_set) >= query.m

    def test_visual_search_returns_abstracts_4_and_6(self, abstracts_corpus):
        query = PolymorphousQuery.resolve(abstracts_corpus, 1, ("VISUAL SEARCH",))
        hits = retrieve(abstracts_corpus, query)
        assert {abstracts_corpus.objects[i].label for i in hits} == {
            "abstract 4",
            "abstract 6",
        }


class TestRetrieveEqualsSortedScan:
    """The count-group walk answers as a sort of every matching (count, id) pair."""

    @pytest.mark.parametrize("n", [1, 2, 29, 30, 31, 60, 130])
    @pytest.mark.parametrize("density", [(0.5, 0.8), (0.03, 0.15)], ids=["dense", "sparse"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_m_of_seeded_queries(self, n, density, seed):
        rng = random.Random(f"retrieve-groups:{n}:{density}:{seed}")
        width, p = 12, rng.uniform(*density)
        rows = ["".join("1" if rng.random() < p else "0" for _ in range(width)) for _ in range(n)]
        for i in range(1, n, 3):
            rows[i] = rows[rng.randrange(i)]  # a duplicate of an earlier row
        corpus = bits_corpus([row + "01" for row in rows])  # one column never set, one always
        for size in range(1, 7):
            for _ in range(4):
                features = tuple(rng.sample(range(width + 2), size))
                for m in range(1, size + 1):
                    query = PolymorphousQuery(m, features)
                    assert retrieve(corpus, query) == retrieve_sorted_scan(corpus, query)
        nothing, every = PolymorphousQuery(1, (width,)), PolymorphousQuery(1, (width + 1,))
        assert retrieve(corpus, nothing) == retrieve_sorted_scan(corpus, nothing) == ()
        assert retrieve(corpus, every) == retrieve_sorted_scan(corpus, every) == tuple(range(n))


class TestRuleDoublesAsQuery:
    """A category's rule, run as a query, returns every member and exactly its false alarms."""

    def test_golden_corpora_and_the_two_of_three_field(self, shapes_corpus):
        fields = [(corpus, run(corpus, params).field) for _, corpus, params in random_cases()]
        fields.append((shapes_corpus, two_of_three_field(shapes_corpus)))
        seen: Counter[str] = Counter()
        for corpus, field in fields:
            labels = corpus.space.labels
            for cat in field.categories:
                rule = cat.rule
                if rule is None or rule.m < 1:
                    continue
                names = [labels[f] for f in rule.feature_set]
                query = PolymorphousQuery.resolve(corpus, rule.m, names)
                assert query.feature_set == rule.feature_set
                hits = set(retrieve(corpus, query))
                assert hits.issuperset(cat.members)
                outsiders = set(field.clustered()).difference(cat.members)
                alarms = len(hits & outsiders)
                assert rule.false_alarm_rate == (alarms / len(outsiders) if outsiders else 0.0)
                seen["rules"] += 1
                seen["polymorphous"] += rule.polymorphous
                seen["with false alarms"] += alarms > 0
                seen["unclustered hits"] += bool(hits - outsiders - set(cat.members))
        assert min(seen.values()) > 0 and len(seen) == 4, seen


class TestRetrieveBySeed:
    def test_duplicate_ranks_first(self):
        corpus = bits_corpus(["1100", "1010", "1100", "0110"])
        got = retrieve_by_seed(corpus, 0, 3)
        assert got[0] == (2, 1.0)

    def test_independent_rest_in_id_order(self):
        corpus = bits_corpus(["1100", "1010", "0110", "1001"])
        got = retrieve_by_seed(corpus, 0, 3)
        assert [obj_id for obj_id, _ in got] == [1, 2, 3]
        assert all(aff == 0.0 for _, aff in got)

    def test_equal_affinity_from_two_tables_ranks_by_id(self):
        """Objects 1 (n11 1, size 1) and 2 (n11 2, size 3) tie; the counter meets 2 first.

        Object 2's n11 sets the top counter plane, so its group is split
        off, and its bucket scored, before object 1's.
        """
        corpus = bits_corpus(["1100", "0100", "1110", "0001"])
        assert corpus.feature_index[:2] == (0b0101, 0b0111)
        tie = 0.31127812445913294
        assert retrieve_by_seed(corpus, 0, 2) == ((1, tie), (2, tie))
        for k in range(1, len(corpus) + 1):
            assert retrieve_by_seed(corpus, 0, k) == retrieve_by_seed_scan(corpus, 0, k), k

    def test_abstract_6_tops_seed_abstract_4(self, abstracts_corpus):
        seed = abstracts_corpus.object_by_label("abstract 4").id
        got = retrieve_by_seed(abstracts_corpus, seed, 3)
        top_label = abstracts_corpus.objects[got[0][0]].label
        assert top_label == "abstract 6"
        assert got[0][1] > 0.0

    # seed 110000 and its duplicate 110000, object 2; 101111 and 100111
    # share f0 but are gated, as n11·F = 6 <= 2·5 and 2·4; 001100 and
    # 000011 share nothing
    @pytest.mark.parametrize(
        "rows, kinds",
        [
            (["110000", "101111", "110000", "001100", "100111"], ["gated", "disjoint", "gated"]),
            (["110000", "001100", "110000", "101111", "000011"], ["disjoint", "gated", "disjoint"]),
        ],
        ids=["gated-first", "disjoint-first"],
    )
    def test_gated_and_disjoint_zeros_share_one_id_order(self, rows, kinds):
        corpus = bits_corpus(rows)
        zeros = [1, 3, 4]
        tables = {j: object_pair_table(corpus.objects[0], corpus.objects[j]) for j in zeros}
        assert ["gated" if tables[j].n11 else "disjoint" for j in zeros] == kinds
        assert all(tables[j].determinant <= 0 for j in zeros)
        positive = information.affinity(corpus.objects[0], corpus.objects[2])
        assert positive > 0.0
        want = ((2, positive),) + tuple((j, 0.0) for j in zeros)
        for k in range(1, len(corpus) + 3):
            assert retrieve_by_seed(corpus, 0, k) == want[:k], k

    def test_k_past_the_others_lists_each_once(self):
        corpus = bits_corpus(["110000", "001100", "110000", "101111", "000011", "010000"])
        n = len(corpus)
        for seed in range(n):
            for k in (n - 1, n, n + 4):
                got = retrieve_by_seed(corpus, seed, k)
                assert sorted(j for j, _ in got) == [j for j in range(n) if j != seed]
                assert got == retrieve_by_seed_scan(corpus, seed, k)

    def test_a_one_object_corpus_answers_empty(self):
        corpus = bits_corpus(["10"])
        assert retrieve_by_seed(corpus, 0, 1) == retrieve_by_seed(corpus, 0, 5) == ()

    def test_seed_and_k_validation(self):
        corpus = bits_corpus(["10", "01"])
        with pytest.raises(ValueError, match="seed"):
            retrieve_by_seed(corpus, 9, 1)
        with pytest.raises(ValueError, match="positive"):
            retrieve_by_seed(corpus, 0, 0)


def differential_corpora() -> Iterator[Corpus]:
    """Seeded random corpora, sparse and dense, with duplicate rows to force ties.

    Every fourth corpus holds one object whose only feature no other
    object has, so some seeds share no feature with any object.
    """
    rng = random.Random(5150)
    for case in range(160):
        n = rng.randint(2, 16)
        width = rng.randint(1, 24)
        density = rng.uniform(0.03, 0.15) if case % 2 else rng.uniform(0.6, 0.8)
        rows = [[int(rng.random() < density) for _ in range(width)] for _ in range(n)]
        for _ in range(rng.randint(0, n // 2)):
            rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
        if case % 4 == 0:
            lone = rng.randrange(n)
            rows = [[0] * width + [1] if r == lone else row + [0] for r, row in enumerate(rows)]
        yield bits_corpus(["".join(map(str, row)) for row in rows])


def wide_corpora() -> Iterator[Corpus]:
    """Seeded corpora whose bitmaps cross int-digit and machine-word sizes.

    n runs past 30, 60, 64 and 128 bits. Odd cases give every object one
    size, of 16 to 20 features, so every seed needs five counter planes;
    even cases draw each row's density on its own, for many sizes, and
    blank a few rows to size 0. Duplicate rows force ties.
    """
    rng = random.Random(6464)
    for case, n in enumerate((29, 30, 31, 59, 60, 61, 63, 64, 65, 130)):
        width = rng.randint(24, 32)
        if case % 2:
            size = rng.randint(16, 20)
            rows = [sorted(rng.sample(range(width), size)) for _ in range(n)]
            rows = [[int(f in row) for f in range(width)] for row in rows]
        else:
            densities = [rng.uniform(0.05, 0.9) for _ in range(n)]
            rows = [[int(rng.random() < d) for _ in range(width)] for d in densities]
            for _ in range(rng.randint(1, 3)):
                rows[rng.randrange(n)] = [0] * width
        for _ in range(rng.randint(1, n // 4)):
            rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
        yield bits_corpus(["".join(map(str, row)) for row in rows])


class TestSeedIndexEqualsScan:
    """The index scan returns exactly what scoring every object returns."""

    def test_every_seed_and_k_matches_the_scan(self):
        seen: Counter[str] = Counter()
        for corpus in differential_corpora():
            n = len(corpus)
            for seed in range(n):
                # the scan's top k is the first k of one sort, so one scan serves every k
                full = retrieve_by_seed_scan(corpus, seed, n)
                for k in range(1, n + 6):
                    assert retrieve_by_seed(corpus, seed, k) == full[:k], (corpus, seed, k)
                tables = [
                    object_pair_table(corpus.objects[seed], obj)
                    for obj in corpus.objects
                    if obj.id != seed
                ]
                seen["seed shares no feature"] += all(t.n11 == 0 for t in tables)
                seen["n11 > 0, determinant <= 0"] += sum(
                    t.n11 > 0 and t.determinant <= 0 for t in tables
                )
                positive = [aff for _, aff in full if aff > 0.0]
                seen["tied positive affinities"] += len(set(positive)) < len(positive)
                seen["zero fill after positives"] += 0 < len(positive) < n - 2
        assert min(seen.values()) > 0 and len(seen) == 4, seen

    def test_wide_corpora_match_the_scan(self):
        seen: Counter[str] = Counter()
        for corpus in wide_corpora():
            n = len(corpus)
            sizes = [obj.ones for obj in corpus.objects]
            for seed in range(n):
                full = retrieve_by_seed_scan(corpus, seed, n)
                for k in range(1, n + 6):
                    assert retrieve_by_seed(corpus, seed, k) == full[:k], (corpus, seed, k)
                seen["seed of 16+ features"] += sizes[seed] >= 16
            seen["n past 64"] += n > 64
            seen["size 0 rows"] += 0 in sizes
            seen["one size"] += len(corpus.size_groups) == 1
            seen["eight or more sizes"] += len(corpus.size_groups) >= 8
        assert min(seen.values()) > 0 and len(seen) == 5, seen


def counting_transmissions(monkeypatch) -> list[tuple[int, int, int, int]]:
    """Every ``information.gated_transmission`` call from here on, as its arguments."""
    calls: list[tuple[int, int, int, int]] = []
    real = information.gated_transmission

    def counting(n11: int, ones_a: int, ones_b: int, width: int) -> float:
        calls.append((n11, ones_a, ones_b, width))
        return real(n11, ones_a, ones_b, width)

    monkeypatch.setattr(information, "gated_transmission", counting)
    return calls


class TestOneTransmissionPerDistinctTable:
    """A seed query asks the kernel once per distinct (n11, size of the other object), n11 = 0 included.

    The gate sends every table with n11 = 0, and every other table not
    positively associated, to 0.0 before the memo, so ``table_score`` is
    asked for exactly the positive tables of the co-occurring objects.
    """

    def test_calls_equal_the_distinct_tables_of_every_other_object(self, monkeypatch):
        calls = counting_transmissions(monkeypatch)
        scored = scored_tables(monkeypatch)
        corpora = [
            datasets.abstracts_corpus(),
            datasets.abstracts_corpus(with_title_tokens=True),
            *differential_corpora(),
        ]
        seen: Counter[str] = Counter()
        for corpus in corpora:
            rows = [obj.bits for obj in corpus.objects]
            for seed, row in enumerate(rows):
                own, width = sum(row), len(row)
                shared = {
                    j: sum(x & y for x, y in zip(row, other))
                    for j, other in enumerate(rows)
                    if j != seed
                }
                tables = {(n11, sum(rows[j])) for j, n11 in shared.items()}
                calls.clear()
                scored.clear()
                retrieve_by_seed(Corpus(corpus.space, corpus.objects), seed, len(corpus))
                assert len(calls) == len(tables), (corpus, seed)
                assert {(n11, b) for n11, _, b, _ in calls} == tables, (corpus, seed)
                assert all(a == own and w == width for _, a, _, w in calls), seed
                assert scored == {
                    (n11, *sorted((own, b)), width)
                    for n11, b in tables
                    if n11 and positive(n11, own, b, width)
                }, (corpus, seed)
                seen["fewer tables than objects"] += len(tables) < len(shared)
                seen["no co-occurring object"] += not any(shared.values())
                seen["a gated co-occurring table"] += any(
                    n11 and not positive(n11, own, b, width) for n11, b in tables
                )
        assert min(seen.values()) > 0 and len(seen) == 3, seen

    # object 1, 1000, shares no feature: every other object is n11 = 0, in
    # two size groups (2 and 1); object 2, 1011, shares f0 with the seed
    # 1100 but is gated, as n11·F = 4 <= 2·3, and ties with 0011 and 0001,
    # which share nothing
    @pytest.mark.parametrize(
        "rows, seed, want, asked",
        [
            (
                ["0011", "1000", "0010", "0001", "0011"], 1,
                ((0, 0.0), (2, 0.0), (3, 0.0), (4, 0.0)),
                {(0, 1, 2, 4), (0, 1, 1, 4)},
            ),
            (
                ["0011", "1100", "1011", "0001", "1100"], 1,
                ((4, 1.0), (0, 0.0), (2, 0.0), (3, 0.0)),
                {(2, 2, 2, 4), (1, 2, 3, 4), (0, 2, 2, 4), (0, 2, 1, 4)},
            ),
        ],
        ids=["seed-shares-nothing", "gated-ties-disjoint"],
    )
    def test_zero_affinities_are_gated_and_rank_by_id(self, monkeypatch, rows, seed, want, asked):
        calls = counting_transmissions(monkeypatch)
        scored = scored_tables(monkeypatch)
        corpus = bits_corpus(rows)
        for k in range(1, len(corpus) + 2):
            calls.clear()
            assert retrieve_by_seed(corpus, seed, k) == want[:k], k
            assert len(calls) == len(asked) and set(calls) == asked, k
        assert scored == {(n11, a, b, w) for n11, a, b, w in asked if positive(n11, a, b, w)}


def seed_tables(corpus: Corpus, seed: int) -> set[tuple[int, int, int]]:
    """The (n11, seed size, other size) tables between the seed and each co-occurring object."""
    rows = [obj.bits for obj in corpus.objects]
    tables = set()
    for j, other in enumerate(rows):
        n11 = sum(x & y for x, y in zip(rows[seed], other))
        if j != seed and n11:
            tables.add((n11, sum(rows[seed]), sum(other)))
    return tables


def positive(n11: int, a: int, b: int, width: int) -> bool:
    """Whether the gate passes the table: its determinant n11*width - a*b is positive."""
    return n11 * width > a * b


class TestOneScorePerTablePerCorpus:
    """The kernel's memo scores each distinct positive table once, for every corpus and query."""

    def test_every_seed_of_a_keyword_corpus_scores_each_table_once(self, monkeypatch):
        corpus = keyword_corpus(keyword_rows(7, 120, 200, sizes=(3, 9)), 200)
        memo = information.table_score
        scored = scored_tables(monkeypatch)
        tables: set[tuple[int, int, int]] = set()
        asked = 0
        for seed in range(len(corpus)):
            per_seed = seed_tables(corpus, seed)
            tables |= per_seed
            asked += len(per_seed)
            retrieve_by_seed(corpus, seed, 10)
        keys = {(n11, *sorted((a, b)), 200) for n11, a, b in tables}
        assert scored == {key for key in keys if positive(*key)}
        assert memo.cache_info().misses == len(scored) < len(tables)
        assert asked > 10 * len(keys)

    def test_both_orders_of_the_sizes_give_one_float(self):
        memo = information.table_score
        for width in range(1, 13):
            for a, b in combinations(range(width + 1), 2):
                for n11 in range(max(0, a + b - width), a + 1):
                    memo.cache_clear()
                    forward = information.gated_transmission(n11, a, b, width)
                    backward = information.gated_transmission(n11, b, a, width)
                    if positive(n11, a, b, width):
                        assert backward is forward
                        assert memo.__wrapped__(n11, b, a, width) == forward
                        info = memo.cache_info()
                        assert (info.misses, info.currsize) == (1, 1)
                    else:
                        assert forward == backward == 0.0
                        assert memo.cache_info().currsize == 0

    def test_a_retrieval_benchmark_shaped_corpus_scores_at_most_one_call_per_table(self, monkeypatch):
        """540 seed queries on n 2000, 1536 keywords, 10 a record: one score per table.

        Every record has 10 keywords, so the tables are (n11, 10, 10) for
        n11 1 to 10. One score per table per query would be over four a query.
        """
        corpus = keyword_corpus(keyword_rows(11, 2000, 1536), 1536)
        asked = counting_transmissions(monkeypatch)
        memo = information.table_score
        scored = scored_tables(monkeypatch)
        rng = random.Random(540)
        queries = 540
        for _ in range(queries):
            retrieve_by_seed(corpus, rng.randrange(len(corpus)), 10)
        assert len(asked) > 4 * queries
        assert scored == {key for key in asked if positive(*key)}
        assert memo.cache_info().misses == len(scored) <= 10

    def test_corpora_of_equal_sizes_and_other_widths_keep_their_own_scores(self, monkeypatch):
        narrow = bits_corpus(["11000", "10100", "00110"])
        wide = bits_corpus(["110000", "101000", "001100"])
        want = {id(c): [retrieve_by_seed_scan(c, seed, 2) for seed in range(3)] for c in (narrow, wide)}
        memo = information.table_score
        scored = scored_tables(monkeypatch)
        for corpus in (narrow, wide, narrow, wide):
            assert [retrieve_by_seed(corpus, seed, 2) for seed in range(3)] == want[id(corpus)]
        assert sorted(scored) == [(1, 2, 2, 5), (1, 2, 2, 6)]
        assert memo.cache_info().misses == 2
        gated = information.gated_transmission
        assert 0.0 < gated(1, 2, 2, 5) != gated(1, 2, 2, 6) > 0.0

    def test_a_warm_memo_answers_as_the_scan_in_any_seed_order(self):
        for corpus in chain(differential_corpora(), wide_corpora()):
            n = len(corpus)
            want = [retrieve_by_seed_scan(corpus, seed, n) for seed in range(n)]
            for order in (range(n), reversed(range(n))):
                information.table_score.cache_clear()
                for seed in order:
                    assert retrieve_by_seed(corpus, seed, n) == want[seed], (corpus, seed)
                for seed in range(n):
                    assert retrieve_by_seed(corpus, seed, n) == want[seed], (corpus, seed)

    def test_a_warm_memo_leaves_the_corpus_equal_to_a_fresh_one(self):
        information.table_score.cache_clear()
        corpus = keyword_corpus(keyword_rows(3, 40, 60), 60)
        for seed in range(len(corpus)):
            retrieve_by_seed(corpus, seed, 5)
        assert information.table_score.cache_info().currsize
        # the corpus keeps its fields and indices, and no score
        assert set(vars(corpus)) == {"space", "objects", "feature_index", "size_groups"}
        fresh = keyword_corpus(keyword_rows(3, 40, 60), 60)
        assert corpus == fresh and hash(corpus) == hash(fresh)
        assert repr(corpus) == repr(fresh)


class TestClusteringWarmsTheSeedWalk:
    """After ``engine.run`` on a corpus, its seed queries find every positive table scored.

    The affinity matrix asks the kernel for every pair's table, so a seed
    query from any object adds no miss to the memo, and every entry is
    the float the unmemoized body gives.
    """

    def cases(self) -> Iterator[tuple[Corpus, Parameters]]:
        for seed in (1, 2, 3):
            yield planted_corpus(seed, 40)[0], Parameters(0.3, 0.15, 0.5)
        for seed in (4, 5):
            yield keyword_corpus(keyword_rows(seed, 60, 90, sizes=(3, 9)), 90), Parameters(0.04, 0.02)

    def test_seed_queries_after_a_job_add_no_miss(self, monkeypatch):
        memo = information.table_score
        scored = scored_tables(monkeypatch)
        for corpus, params in self.cases():
            run(corpus, params)
            misses = memo.cache_info().misses
            n = len(corpus)
            for seed in range(n):
                assert retrieve_by_seed(corpus, seed, n) == retrieve_by_seed_scan(corpus, seed, n)
            assert memo.cache_info().misses == misses
        assert memo.cache_info().currsize == len(scored) > 100
        for key in scored:
            assert memo(*key).hex() == memo.__wrapped__(*key).hex(), key


class TestFeatureIndex:
    def test_bitmaps_sizes_and_size_bitmaps(self):
        corpus = bits_corpus(["110", "011", "000", "111"])
        assert corpus.feature_index == (0b1001, 0b1011, 0b1010)
        assert tuple(obj.ones for obj in corpus.objects) == (2, 2, 0, 3)
        assert corpus.size_groups == ((3, 0b1000), (2, 0b0011), (0, 0b0100))

    def test_built_once_and_cached(self):
        corpus = bits_corpus(["10", "11"] * 200)
        index, groups = corpus.feature_index, corpus.size_groups
        evens = sum(1 << j for j in range(0, 400, 2))
        odds = evens << 1
        assert index == ((1 << 400) - 1, odds)
        assert tuple(obj.ones for obj in corpus.objects) == (1, 2) * 200
        assert groups == ((2, odds), (1, evens))
        assert corpus.feature_index is index and corpus.size_groups is groups

    def test_size_groups_equal_a_per_row_scan(self):
        """n across int-digit and word sizes, with rows of size 0 and of every feature."""
        rng = random.Random(3165)
        for n in (29, 30, 31, 59, 60, 61, 63, 64, 65, 129, 130, 131):
            width = rng.randint(1, 40)
            rows = [[int(rng.random() < rng.random()) for _ in range(width)] for _ in range(n)]
            for _ in range(rng.randint(1, 3)):
                rows[rng.randrange(n)] = [0] * width
            rows[rng.randrange(n)] = [1] * width
            corpus = bits_corpus(["".join(map(str, row)) for row in rows])
            by_size: dict[int, int] = {}
            for obj in corpus.objects:
                size = bit_ones(obj)
                by_size[size] = by_size.get(size, 0) | 1 << obj.id
            assert corpus.size_groups == tuple(sorted(by_size.items(), reverse=True)), n
            assert corpus.size_groups[-1][0] == 0 and corpus.size_groups[0][0] == width


class TestRetrievalValidatesTheCorpus:
    """Retrieval reads only corpora that checked the invariants ``engine.run`` relies on."""

    @pytest.mark.parametrize("name", ["duplicate label", "short row", "bit of 2"])
    def test_both_raise_the_validation_error(self, name):
        _, space, objects, message = next(case for case in broken_inputs() if case[0] == name)
        with pytest.raises(CorpusError) as got:
            Corpus(space, objects)
        assert str(got.value) == message

    def test_a_valid_corpus_is_checked_once(self, monkeypatch):
        calls = []
        check = Corpus.__post_init__

        def counting(corpus):
            calls.append(corpus)
            check(corpus)

        monkeypatch.setattr(Corpus, "__post_init__", counting)
        corpus = bits_corpus(["110", "011", "101"])
        query = PolymorphousQuery.resolve(corpus, 1, ("f0",))
        for seed in range(3):
            retrieve(corpus, query)
            retrieve_by_seed(corpus, seed, 2)
        # checked once, when built; the constant-feature scan is left to engine.run
        assert calls == [corpus]
        assert "warnings" not in vars(corpus)

    def test_true_and_float_bits_answer_as_int_bits(self):
        ints = bits_corpus(["1100", "1010", "0111", "1111", "0000", "1100"])
        mixed = Corpus(
            ints.space,
            tuple(
                ObjectInstance(o.id, o.label, tuple((True if o.id % 2 else 1.0) if b else 0 for b in o.bits))
                for o in ints.objects
            ),
        )
        query = PolymorphousQuery.resolve(ints, 2, ("f0", "f1", "f3"))
        assert retrieve(mixed, query) == retrieve(ints, query)
        for seed in range(len(ints)):
            got = retrieve_by_seed(mixed, seed, 6)
            assert repr(got) == repr(retrieve_by_seed(ints, seed, 6))
            assert repr(got) == repr(retrieve_by_seed_scan(mixed, seed, 6))
