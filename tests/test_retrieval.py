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
    retrieve_by_seed_scan,
)
from test_description import two_of_three_field
from test_golden import random_cases
from test_model import broken_inputs
from polyclust import datasets, information, run
from polyclust.model import Corpus, CorpusError, ObjectInstance, PolymorphousRule
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
    """A seed query gates one table per distinct (n11, size of the other object).

    Each query runs on its own copy of the corpus, so it starts with an
    empty table memo and scores every table it meets.
    """

    def test_calls_equal_the_distinct_pairs_of_the_co_occurring_objects(self, monkeypatch):
        calls = counting_transmissions(monkeypatch)
        corpora = [
            datasets.abstracts_corpus(),
            datasets.abstracts_corpus(with_title_tokens=True),
            *differential_corpora(),
        ]
        seen: Counter[str] = Counter()
        for corpus in corpora:
            rows = [obj.bits for obj in corpus.objects]
            for seed, row in enumerate(rows):
                shared = {
                    j: n11
                    for j, other in enumerate(rows)
                    if j != seed and (n11 := sum(x & y for x, y in zip(row, other)))
                }
                pairs = {(n11, sum(rows[j])) for j, n11 in shared.items()}
                calls.clear()
                retrieve_by_seed(Corpus(corpus.space, corpus.objects), seed, len(corpus))
                assert len(calls) == len(pairs), (corpus, seed)
                assert {(n11, b) for n11, _, b, _ in calls} == pairs, (corpus, seed)
                assert all(a == sum(row) and w == len(row) for _, a, _, w in calls), seed
                seen["fewer pairs than objects"] += len(pairs) < len(shared)
                seen["no co-occurring object"] += not shared
        assert min(seen.values()) > 0 and len(seen) == 2, seen


def seed_tables(corpus: Corpus, seed: int) -> set[tuple[int, int, int]]:
    """The (n11, seed size, other size) tables between the seed and each co-occurring object."""
    rows = [obj.bits for obj in corpus.objects]
    tables = set()
    for j, other in enumerate(rows):
        n11 = sum(x & y for x, y in zip(rows[seed], other))
        if j != seed and n11:
            tables.add((n11, sum(rows[seed]), sum(other)))
    return tables


class TestOneScorePerTablePerCorpus:
    """``Corpus.transmission`` scores each distinct table once per corpus, for every seed query."""

    def test_every_seed_of_a_keyword_corpus_scores_each_table_once(self, monkeypatch):
        corpus = keyword_corpus(keyword_rows(7, 120, 200, sizes=(3, 9)), 200)
        calls = counting_transmissions(monkeypatch)
        tables: set[tuple[int, int, int]] = set()
        asked = 0
        for seed in range(len(corpus)):
            per_seed = seed_tables(corpus, seed)
            tables |= per_seed
            asked += len(per_seed)
            retrieve_by_seed(corpus, seed, 10)
        keys = {(n11, *sorted((a, b))) for n11, a, b in tables}
        assert len(calls) == len(keys) < len(tables)
        assert {(n11, *sorted((a, b))) for n11, a, b, _ in calls} == keys
        assert {w for *_, w in calls} == {200}
        assert asked > 10 * len(keys)

    def test_both_orders_of_the_sizes_give_one_float(self):
        for width in range(1, 13):
            for a, b in combinations(range(width + 1), 2):
                for n11 in range(max(0, a + b - width), a + 1):
                    forward = information.gated_transmission(n11, a, b, width)
                    assert information.gated_transmission(n11, b, a, width) == forward
                    corpus = bits_corpus(["0" * width])
                    assert corpus.transmission(n11, b, a) == forward
                    assert corpus.transmission(n11, a, b) == forward
                    assert list(vars(corpus)["_transmissions"].items()) == [((n11, a, b), forward)]

    def test_a_retrieval_benchmark_shaped_corpus_scores_at_most_one_call_per_table(self, monkeypatch):
        """540 seed queries on n 2000, 1536 keywords, 10 a record: at most one call per table.

        Every record has 10 keywords, so the tables are (n11, 10, 10) for
        n11 1 to 10. One call per table per query would be over four calls a query.
        """
        corpus = keyword_corpus(keyword_rows(11, 2000, 1536), 1536)
        calls = counting_transmissions(monkeypatch)
        asked: list[tuple[int, int, int]] = []
        real = Corpus.transmission

        def asking(self: Corpus, n11: int, ones_a: int, ones_b: int) -> float:
            asked.append((n11, ones_a, ones_b))
            return real(self, n11, ones_a, ones_b)

        monkeypatch.setattr(Corpus, "transmission", asking)
        rng = random.Random(540)
        queries = 540
        for _ in range(queries):
            retrieve_by_seed(corpus, rng.randrange(len(corpus)), 10)
        assert len(asked) > 4 * queries
        assert len(calls) == len(set(asked)) <= 10
        assert {(n11, a, b) for n11, a, b, _ in calls} == set(asked)

    def test_corpora_of_equal_sizes_and_other_widths_keep_their_own_scores(self, monkeypatch):
        narrow = bits_corpus(["11000", "10100", "00110"])
        wide = bits_corpus(["110000", "101000", "001100"])
        want = {id(c): [retrieve_by_seed_scan(c, seed, 2) for seed in range(3)] for c in (narrow, wide)}
        calls = counting_transmissions(monkeypatch)
        for corpus in (narrow, wide, narrow, wide):
            assert [retrieve_by_seed(corpus, seed, 2) for seed in range(3)] == want[id(corpus)]
        assert sorted(calls) == [(1, 2, 2, 5), (1, 2, 2, 6)]
        assert 0.0 < narrow.transmission(1, 2, 2) != wide.transmission(1, 2, 2) > 0.0

    def test_a_warm_memo_answers_as_the_scan_in_any_seed_order(self):
        for corpus in chain(differential_corpora(), wide_corpora()):
            n = len(corpus)
            want = [retrieve_by_seed_scan(corpus, seed, n) for seed in range(n)]
            for order in (range(n), reversed(range(n))):
                warm = Corpus(corpus.space, corpus.objects)
                for seed in order:
                    assert retrieve_by_seed(warm, seed, n) == want[seed], (corpus, seed)
                for seed in range(n):
                    assert retrieve_by_seed(warm, seed, n) == want[seed], (corpus, seed)

    def test_a_warm_memo_leaves_the_corpus_equal_to_a_fresh_one(self):
        corpus = keyword_corpus(keyword_rows(3, 40, 60), 60)
        for seed in range(len(corpus)):
            retrieve_by_seed(corpus, seed, 5)
        assert vars(corpus)["_transmissions"]
        fresh = keyword_corpus(keyword_rows(3, 40, 60), 60)
        assert "_transmissions" not in vars(fresh)
        assert corpus == fresh and hash(corpus) == hash(fresh)
        assert repr(corpus) == repr(fresh)


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
