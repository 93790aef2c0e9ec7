"""Engine states, hunts, escalation, and frozen run regressions."""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    best_member,
    bits_corpus,
    cohesion,
    distinctiveness,
    group_average,
    make_category,
    margin,
    planted_corpus,
    reference_run,
    whole_field_accept,
)
from polyclust import datasets, description, emit_json, engine, information, run
from polyclust.engine import (
    _cross_pairs,
    _mean,
    _prototype,
    affinity_matrix,
    field_valid,
    merge_hunt,
    object_hunt,
    protoseed_hunt,
)
from polyclust.model import ConceptField, Corpus, Parameters
from test_golden import random_cases


def field_of(corpus: Corpus, categories=(), unclustered=None) -> ConceptField:
    cats = tuple(make_category(corpus, ids) for ids in categories)
    if unclustered is None:
        taken = {i for ids in categories for i in ids}
        unclustered = tuple(i for i in range(len(corpus)) if i not in taken)
    return ConceptField(cats, tuple(unclustered))


DEFAULTS = Parameters()  # 0.4 / 0.2 / 0.5


class TestFieldValid:
    def test_empty_field_vacuously_valid(self):
        corpus = bits_corpus(["1100"])
        validity = field_valid(ConceptField.initial(1), corpus, DEFAULTS)
        assert validity.ok
        assert validity.cohesions == ()

    def test_single_tight_category(self):
        corpus = bits_corpus(["1100", "1100"])
        field = ConceptField((make_category(corpus, (0, 1)),), ())
        validity = field_valid(field, corpus, DEFAULTS)
        assert validity.ok
        assert validity.cohesions == (1.0,)
        assert margin(validity.cohesions, validity.distinctiveness, 0) is None

    def test_copied_categories_have_zero_margin(self):
        corpus = bits_corpus(["1100", "1100", "1100", "1100"])
        field = ConceptField(
            (make_category(corpus, (0, 1)), make_category(corpus, (2, 3))), ()
        )
        validity = field_valid(field, corpus, DEFAULTS)
        assert not validity.ok
        assert validity.cohesions == (1.0, 1.0)
        assert margin(validity.cohesions, validity.distinctiveness, 0) == 0.0


class TestProtoseedHunt:
    def test_promotes_best_pair(self):
        corpus = bits_corpus(["1100", "1100", "0011"])
        got = protoseed_hunt(field_of(corpus), affinity_matrix(corpus), DEFAULTS)
        assert got is not None
        field, step = got
        assert [c.members for c in field.categories] == [(0, 1)]
        assert field.categories[0].cohesion == 1.0
        assert field.unclustered == (2,)
        assert step == engine.TraceStep("protoseed", (0, 1), 0, 1.0)

    def test_all_independent_is_impasse(self):
        corpus = bits_corpus(["1100", "1010", "0110"])
        assert protoseed_hunt(field_of(corpus), affinity_matrix(corpus), DEFAULTS) is None

    def test_single_object_is_impasse(self):
        corpus = bits_corpus(["1100"])
        assert protoseed_hunt(field_of(corpus), affinity_matrix(corpus), DEFAULTS) is None

    def test_tie_breaks_to_smallest_id_pair(self):
        corpus = bits_corpus(["1100", "1100", "1100"])
        got = protoseed_hunt(field_of(corpus), affinity_matrix(corpus), DEFAULTS)
        assert got is not None
        field, step = got
        assert field.categories[0].members == (0, 1) and step.objects == (0, 1)

    def test_rejected_when_field_would_go_invalid(self):
        # a second copy of an existing category has zero margin
        corpus = bits_corpus(["1100", "1100", "1100", "1100"])
        field = field_of(corpus, categories=((0, 1),))
        assert protoseed_hunt(field, affinity_matrix(corpus), DEFAULTS) is None

    def test_invalid_maximum_pair_is_an_impasse_even_if_a_lower_pair_is_valid(self):
        # (2, 3) copies the existing category: zero margin; (4, 5) alone would pass
        corpus = bits_corpus(["110000", "110000", "110000", "110000", "001110", "001100"])
        aff = affinity_matrix(corpus)
        assert aff[2][3] > aff[4][5] > 0.0
        assert not field_valid(field_of(corpus, ((0, 1), (2, 3))), corpus, DEFAULTS).ok
        assert field_valid(field_of(corpus, ((0, 1), (4, 5))), corpus, DEFAULTS).ok
        assert protoseed_hunt(field_of(corpus, ((0, 1),)), aff, DEFAULTS) is None


class TestObjectHunt:
    def test_adds_duplicate_keeping_cohesion(self):
        corpus = bits_corpus(["1100", "1100", "1100"])
        field = field_of(corpus, categories=((0, 1),))
        got = object_hunt(field, affinity_matrix(corpus), DEFAULTS)
        assert got is not None
        new_field, step = got
        assert [c.members for c in new_field.categories] == [(0, 1, 2)]
        assert new_field.categories[0].cohesion == 1.0
        assert new_field.unclustered == ()
        assert step.action == "add" and step.objects == (2,) and step.category == 0
        assert step.cohesion == 1.0 and step.merged_from is None

    def test_rejects_addition_that_drops_cohesion(self):
        corpus = bits_corpus(["1100", "1100", "0011"])
        field = field_of(corpus, categories=((0, 1),))
        assert object_hunt(field, affinity_matrix(corpus), DEFAULTS) is None  # new W would be 1/3 < 0.4

    def test_no_unclustered_is_impasse(self):
        corpus = bits_corpus(["1100", "1100"])
        field = field_of(corpus, categories=((0, 1),))
        assert object_hunt(field, affinity_matrix(corpus), DEFAULTS) is None

    def test_no_category_is_impasse(self):
        corpus = bits_corpus(["1100", "1100"])
        assert object_hunt(field_of(corpus), affinity_matrix(corpus), DEFAULTS) is None

    def test_ties_go_to_the_lowest_object_id_before_the_lowest_category_index(self):
        # object 5 into category 0 ties object 4 into category 1, and is scanned first
        corpus = bits_corpus(["110000", "110000", "000011", "000011", "000111", "111000"])
        aff = affinity_matrix(corpus)
        best = _mean(aff, combinations((2, 3, 4), 2))
        tie, worse = (_mean(aff, combinations(ids, 2)) for ids in ((0, 1, 5), (0, 1, 4)))
        assert tie == best > worse
        got = object_hunt(field_of(corpus, ((0, 1), (2, 3))), aff, DEFAULTS)
        assert got is not None
        assert got[1] == engine.TraceStep("add", (4,), 1, best)

    def test_ties_for_one_object_go_to_the_lowest_category_index(self):
        corpus = bits_corpus(["110000", "110000", "000011", "000011", "100001", "100001"])
        aff = affinity_matrix(corpus)
        tied = [(0, 1, 4), (0, 1, 5), (2, 3, 4), (2, 3, 5)]
        assert len({_mean(aff, combinations(ids, 2)) for ids in tied}) == 1
        params = Parameters(0.3, 0.2)
        for ids in tied:
            cats = (ids, (2, 3)) if ids[0] == 0 else ((0, 1), ids)
            assert field_valid(field_of(corpus, cats), corpus, params).ok
        got = object_hunt(field_of(corpus, ((0, 1), (2, 3))), aff, params)
        assert got is not None
        new_field, step = got
        assert step == engine.TraceStep("add", (4,), 0, _mean(aff, combinations((0, 1, 4), 2)))
        assert [c.members for c in new_field.categories] == [(0, 1, 4), (2, 3)]
        assert new_field.unclustered == (5,)

    def test_invalid_best_addition_yields_to_a_worse_valid_one(self):
        corpus = bits_corpus(["111011", "111011", "110001", "110001", "110010", "111100"])
        aff = affinity_matrix(corpus)
        params = Parameters(0.1, 0.2)
        # object 4 gives the two best keys, but either addition breaks a margin
        adds = ((2, 3, 4), (0, 1, 4), (2, 3, 5), (0, 1, 5))
        keys = [_mean(aff, combinations(ids, 2)) for ids in adds]
        assert keys[0] > keys[1] > keys[2] > keys[3]
        for cats in (((0, 1), (2, 3, 4)), ((0, 1, 4), (2, 3))):
            assert not field_valid(field_of(corpus, cats), corpus, params).ok
        got = object_hunt(field_of(corpus, ((0, 1), (2, 3))), aff, params)
        assert got is not None
        new_field, step = got
        assert step == engine.TraceStep("add", (5,), 1, keys[2])
        assert new_field.unclustered == (4,)


class TestMergeHunt:
    def test_merges_identical_categories(self):
        corpus = bits_corpus(["1100", "1100", "1100", "1100"])
        field = field_of(corpus, categories=((0, 1), (2, 3)))
        # the two-copy field is invalid as it stands, but the merge repairs it
        got = merge_hunt(field, affinity_matrix(corpus), DEFAULTS)
        assert got is not None
        new_field, step = got
        assert [c.members for c in new_field.categories] == [(0, 1, 2, 3)]
        assert new_field.categories[0].cohesion == 1.0
        assert new_field.unclustered == ()
        assert step.action == "merge" and step.objects == () and step.category == 0
        assert step.merged_from == (0, 1) and step.cohesion == 1.0

    def test_rejects_merge_below_cohesion_threshold(self):
        corpus = bits_corpus(["1100", "1100", "0011", "0011"])
        field = field_of(corpus, categories=((0, 1), (2, 3)))
        assert merge_hunt(field, affinity_matrix(corpus), DEFAULTS) is None  # merged W = 1/3 < 0.4

    def test_single_category_is_impasse(self):
        corpus = bits_corpus(["1100", "1100"])
        field = field_of(corpus, categories=((0, 1),))
        assert merge_hunt(field, affinity_matrix(corpus), DEFAULTS) is None

    def test_ties_go_to_the_lowest_index_pair(self):
        # every merge joins two disjoint pairs: the same cohesion, a third of one pair's
        corpus = bits_corpus(["110000", "110000", "001100", "001100", "000011", "000011"])
        aff = affinity_matrix(corpus)
        merges = [(0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)]
        assert len({_mean(aff, combinations(ids, 2)) for ids in merges}) == 1
        field = field_of(corpus, ((0, 1), (2, 3), (4, 5)))
        got = merge_hunt(field, aff, Parameters(0.3, 0.2))
        assert got is not None
        new_field, step = got
        assert [c.members for c in new_field.categories] == [(0, 1, 2, 3), (4, 5)]
        assert step.merged_from == (0, 1) and step.category == 0

    def test_merged_category_sits_at_i_and_later_categories_shift_down(self):
        corpus = bits_corpus(["110000", "110000", "001100", "001100", "110000", "110000"])
        aff = affinity_matrix(corpus)
        field = field_of(corpus, ((0, 1), (2, 3), (4, 5)))
        got = merge_hunt(field, aff, DEFAULTS)
        assert got is not None
        new_field, step = got
        assert [c.members for c in new_field.categories] == [(0, 1, 4, 5), (2, 3)]
        assert new_field.categories[1] is field.categories[1]
        merged = _mean(aff, combinations((0, 1, 4, 5), 2))
        assert step == engine.TraceStep("merge", (), 0, merged, (0, 2))


class TestAcceptJudgesWhatACandidateChanges:
    """``_accept`` scores the field once and judges each move on what it changes.

    Its verdicts and answers must equal ``whole_field_accept``, which
    tests each move on the whole field it would leave, on any field:
    also on one that is already invalid, as a library caller may build.
    The fields here are built by hand from seeded random rows, with
    thresholds drawn from 0.0, random values and the field's own
    cohesions and margins, so that comparisons land exactly on a
    threshold too.
    """

    HUNTS = (object_hunt, protoseed_hunt, merge_hunt)

    @staticmethod
    def fields(count):
        """(corpus, aff, field, params, failures): each failure ("cohesion", i) or ("margin", i, j)."""
        rng = random.Random(2207)
        for _ in range(count):
            n = rng.randint(4, 12)
            width = rng.randint(3, 10)
            density = rng.uniform(0.2, 0.8)
            corpus = bits_corpus(
                [
                    "".join("1" if rng.random() < density else "0" for _ in range(width))
                    for _ in range(n)
                ]
            )
            ids = list(range(n))
            rng.shuffle(ids)
            categories = []
            while len(ids) >= 2 and rng.random() < 0.75:
                size = rng.randint(2, min(4, len(ids)))
                categories.append(ids[:size])
                del ids[:size]
            field = field_of(corpus, categories)
            scores = field_valid(field, corpus, DEFAULTS)
            k = len(categories)
            cohesions = list(scores.cohesions)
            margins = [
                min(cohesions[i], cohesions[j]) - scores.distinctiveness[i][j]
                for i, j in combinations(range(k), 2)
            ]
            if rng.random() < 0.2:
                params = Parameters(0.0, 0.0)
            else:
                params = Parameters(
                    rng.choice([0.0, rng.uniform(0.0, 0.5)] + cohesions),
                    rng.choice([0.0, rng.uniform(0.0, 0.4)] + [m for m in margins if m >= 0.0]),
                )
            low = [("cohesion", i) for i in range(k) if cohesions[i] < params.cohesion_threshold]
            narrow = [
                ("margin", i, j)
                for (i, j), m in zip(combinations(range(k), 2), margins)
                if m < params.distinctiveness_threshold
            ]
            yield corpus, affinity_matrix(corpus), field, params, low + narrow

    def test_every_hunt_and_every_verdict_equal_the_whole_field_oracle(self, monkeypatch):
        seen: Counter[str] = Counter()
        for corpus, aff, field, params, failures in self.fields(1000):
            for hunt in self.HUNTS:
                asked = []

                def oracle(field, aff, params, moves):
                    moves = list(moves)
                    asked.extend(moves)
                    return whole_field_accept(field, aff, params, moves)

                with monkeypatch.context() as m:
                    m.setattr(engine, "_accept", oracle)
                    want = hunt(field, aff, params)
                assert hunt(field, aff, params) == want
                for move in asked:
                    verdict = engine._accept(field, aff, params, [move])
                    assert verdict == whole_field_accept(field, aff, params, [move])
                    seen["valid" if verdict else "invalid"] += 1
                    replaced = set(move[1])
                    seen.update({f"kept {f[0]}": 1 for f in failures if not replaced & set(f[1:])})
                if want is None:
                    continue
                seen["found"] += 1
                if params == Parameters(0.0, 0.0):
                    seen["zero thresholds"] += 1
                if failures:
                    # the new field is valid, so the action replaced every failing category
                    seen["repaired"] += 1
                    if hunt is object_hunt and all(f[0] == "margin" for f in failures):
                        seen["margin repaired by one side"] += 1
            seen.update({f[0]: 1 for f in failures})
        assert seen["cohesion"] >= 50 and seen["margin"] >= 50, seen
        assert seen["kept cohesion"] >= 500 and seen["kept margin"] >= 500, seen
        assert seen["repaired"] >= 20 and seen["margin repaired by one side"] >= 5, seen
        assert seen["zero thresholds"] >= 50 and seen["found"] >= 500, seen
        assert seen["valid"] >= 1000 and seen["invalid"] >= 1000, seen

    def test_every_key_leads_with_the_candidate_cohesion(self, monkeypatch):
        """Each winner's key is its cohesion, bit for bit, then its move, for all three hunts."""
        keys: Counter[int] = Counter()  # by the number of categories a move replaces
        apply = engine._apply

        def spy(field, aff, key, members, added, replaced):
            taken = [i for k in replaced for i in field.categories[k].members]
            assert members == tuple(sorted(added + tuple(taken)))
            assert key[0].hex() == (-_mean(aff, combinations(members, 2))).hex()
            assert key[1:] == added + replaced
            keys[len(replaced)] += 1
            return apply(field, aff, key, members, added, replaced)

        monkeypatch.setattr(engine, "_apply", spy)
        for _, corpus, params in TestReferenceEngine.cases():
            run(corpus, params)
        assert min(keys[replaced] for replaced in range(3)) > 0, keys


class TestRun:
    def test_single_object_goes_unclustered(self):
        result = run(bits_corpus(["1100"]), DEFAULTS)
        assert result.field.categories == ()
        assert result.field.unclustered == (0,)
        assert "no categories formed; 1 objects unclustered" in result.report

    def test_two_identical_objects_form_one_category(self):
        result = run(bits_corpus(["1100", "1100"]), DEFAULTS)
        assert len(result.field.categories) == 1
        assert result.field.categories[0].members == (0, 1)
        assert result.field.unclustered == ()
        rule = result.field.categories[0].rule
        assert rule is not None
        assert rule.m == 2 and rule.feature_set == (0, 1)
        assert rule.necessary == (0, 1)

    def test_partition_holds_after_every_action(self):
        corpus = bits_corpus(
            ["110011", "110010", "110000", "001100", "001101", "010101", "100110"]
        )
        seen = []

        def check(field, step):
            assert field.is_partition_of(len(corpus))
            seen.append(step)

        result = run(corpus, Parameters(0.1, 0.05), on_action=check)
        assert tuple(seen) == result.trace

    def test_monotone_membership_and_decreasing_measure(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(2, 12)
            width = rng.randint(2, 8)
            corpus = bits_corpus(
                ["".join(str(rng.randint(0, 1)) for _ in range(width)) for _ in range(n)]
            )
            clustered: set[int] = set()
            measures: list[int] = [2 * n]  # 2*|unclustered| + |categories|

            def watch(field, step):
                now = set(field.clustered())
                assert clustered <= now  # nothing ever falls back out
                clustered.clear()
                clustered.update(now)
                measure = 2 * len(field.unclustered) + len(field.categories)
                assert measure < measures[-1]  # every action strictly decreases it
                measures.append(measure)

            result = run(corpus, Parameters(rng.uniform(0, 0.5), rng.uniform(0, 0.3)), on_action=watch)
            assert len(result.trace) <= 2 * n
            clustered.clear()

    def test_category_without_rule_reported_as_none(self):
        # {1100, 1100, 0011} has top feature frequency 2/3, below alpha 0.75
        corpus = bits_corpus(["1100", "1100", "0011"])
        result = run(corpus, Parameters(0.3, 0.2, rule_alpha=0.75))
        assert len(result.field.categories) == 1
        assert result.field.categories[0].members == (0, 1, 2)
        assert result.field.categories[0].rule is None
        assert "rule: none (no feature reaches frequency 0.750000)" in result.report
        from polyclust.description import report_record

        assert report_record(result)["categories"][0]["rule"] is None

    def test_determinism_reports_and_json_identical(self, abstracts_corpus):
        params = Parameters(0.005, 0.05)
        first = run(abstracts_corpus, params)
        second = run(abstracts_corpus, params)
        assert first.trace == second.trace
        assert first.report == second.report
        assert emit_json(first) == emit_json(second)

    def test_cached_statistics_match_recomputation(self, shapes_corpus):
        result = run(shapes_corpus, Parameters(0.05, 0.05))
        for cat in result.field.categories:
            objs = [shapes_corpus.objects[i] for i in cat.members]
            assert abs(cat.cohesion - cohesion(objs)) <= 1e-12
            assert cat.best_member == best_member(cat, shapes_corpus)

    def test_each_category_holds_one_cohesion_bit_for_bit(self):
        """A step's, its category's and the validity's cohesion equal a fresh ``_mean``.

        Both reports read ``validity.cohesions``, and a category's own
        cohesion must be that value: the field's one statement of it.
        """
        actions: Counter[str] = Counter()
        for name, corpus, params in TestReferenceEngine.cases():  # the golden random cases and more
            aff = affinity_matrix(corpus)

            def check(field, step):
                fresh = [_mean(aff, combinations(c.members, 2)).hex() for c in field.categories]
                assert [c.cohesion.hex() for c in field.categories] == fresh, name
                assert step.cohesion.hex() == fresh[step.category], name
                actions[step.action] += 1

            result = run(corpus, params, on_action=check)
            want = [c.cohesion.hex() for c in result.field.categories]
            assert [w.hex() for w in result.validity.cohesions] == want, name
        assert min(actions[action] for action in ("protoseed", "add", "merge")) > 0, actions

    def test_the_text_report_lists_the_labels_of_its_json_twin(self):
        """Each label line and trace line of the text holds what ``report_record`` lists.

        Numbers stay out: the text prints unrounded floats at .6f, the JSON
        9 significant digits.
        """
        for name, corpus, params in TestReferenceEngine.cases():
            result = run(corpus, params)
            record = description.report_record(result)
            want = []
            for cat in record["categories"]:
                want += ["  members: " + ", ".join(cat["members"]),
                         "  best member: " + cat["best_member"]]
                rule = cat["rule"]
                if rule is None:
                    want.append("  rule: none")
                    continue
                want.append(f"  rule: at least {rule['m']} out of {{{', '.join(rule['features'])}}}")
                want += [f"  {kind}: " + ", ".join(rule[kind])
                         for kind in ("necessary", "sufficient") if rule[kind]]
            if record["unclustered"]:
                want.append("unclustered: " + ", ".join(record["unclustered"]))
            for number, step in enumerate(record["trace"], 1):
                objects = ", ".join(step["objects"])
                if step["action"] == "protoseed":
                    head = f"protoseed {{{objects}}}"
                elif step["action"] == "add":
                    head = f"add {objects}"
                else:
                    i, j = step["merged_from"]
                    head = f"merge categories {i + 1} + {j + 1}"
                want.append(f"  {number}. {head} -> category {step['category'] + 1}")
            got = []
            for line in result.report.splitlines():
                if line.startswith("  rule: none ("):
                    got.append("  rule: none")
                elif line.startswith(("  members: ", "  best member: ", "  rule: ",
                                      "  necessary: ", "  sufficient: ", "unclustered: ")):
                    got.append(line)
                elif line[2:3].isdigit():
                    got.append(line.rsplit(" (cohesion ", 1)[0])
            assert got == want, name
            lines = result.report.splitlines()
            categories = sum(line.startswith("category ") for line in lines)
            assert categories == len(record["categories"]), name
            assert f"trace: {len(record['trace'])} accepted actions" in lines, name
            unclustered = len(record["unclustered"])
            if record["categories"]:
                assert f", {unclustered} of {len(corpus)} objects unclustered" in lines[0], name
            else:
                assert lines[0] == f"no categories formed; {unclustered} objects unclustered", name

    def test_post_run_field_is_valid(self):
        rng = random.Random(4242)
        for _ in range(15):
            n = rng.randint(2, 10)
            corpus = bits_corpus(
                ["".join(str(rng.randint(0, 1)) for _ in range(6)) for _ in range(n)]
            )
            params = Parameters(rng.uniform(0, 0.4), rng.uniform(0, 0.2))
            result = run(corpus, params)
            assert result.validity.ok
            assert field_valid(result.field, corpus, params).ok


class TestRunAcceptsAMerge:
    """Runs whose trace ends in an accepted merge, pinned step by step.

    Both cases keep every decision clear of its threshold, so they pin
    the loop's merge branch rather than the rounding of a comparison.
    """

    CASES = [
        (
            ["0111", "0111", "1101", "1101", "0100"],
            Parameters(0.2, 0.0),
            [
                ("protoseed", (0, 1), 0, None, "0.811278"),
                ("add", (4,), 0, None, "0.352130"),
                ("protoseed", (2, 3), 1, None, "0.811278"),
                ("merge", (), 0, (0, 1), "0.211278"),
            ],
            [
                "  1. protoseed {o0, o1} -> category 1 (cohesion 0.811278)",
                "  2. add o4 -> category 1 (cohesion 0.352130)",
                "  3. protoseed {o2, o3} -> category 2 (cohesion 0.811278)",
                "  4. merge categories 1 + 2 -> category 1 (cohesion 0.211278)",
            ],
        ),
        (
            ["10110", "01100", "01100", "00111", "00010", "00111"],
            Parameters(0.15, 0.02),
            [
                ("protoseed", (1, 2), 0, None, "0.970951"),
                ("add", (0,), 0, None, "0.323650"),
                ("add", (4,), 0, None, "0.190317"),
                ("protoseed", (3, 5), 1, None, "0.970951"),
                ("merge", (), 0, (0, 1), "0.166313"),
            ],
            [
                "  1. protoseed {o1, o2} -> category 1 (cohesion 0.970951)",
                "  2. add o0 -> category 1 (cohesion 0.323650)",
                "  3. add o4 -> category 1 (cohesion 0.190317)",
                "  4. protoseed {o3, o5} -> category 2 (cohesion 0.970951)",
                "  5. merge categories 1 + 2 -> category 1 (cohesion 0.166313)",
            ],
        ),
    ]

    @pytest.mark.parametrize("rows, params, steps, lines", CASES)
    def test_trace_and_report_end_in_the_merge(self, rows, params, steps, lines):
        corpus = bits_corpus(rows)
        seen = []
        result = run(corpus, params, on_action=lambda field, step: seen.append(step))
        got = [
            (s.action, s.objects, s.category, s.merged_from, f"{s.cohesion:.6f}")
            for s in result.trace
        ]
        assert got == steps
        assert tuple(seen) == result.trace
        assert [c.members for c in result.field.categories] == [tuple(range(len(rows)))]
        assert result.field.unclustered == ()
        trace_lines = result.report.split("trace: ", 1)[1].splitlines()
        assert trace_lines == [f"{len(steps)} accepted actions"] + lines


class TestMatrixKernelEqualsObjectOracles:
    """The engine's matrix statistics equal the object-level oracles exactly."""

    def test_random_fields(self):
        rng = random.Random(3107)
        categories_checked = 0
        for _ in range(300):
            n = rng.randint(2, 12)
            width = rng.randint(2, 10)
            density = rng.uniform(0.15, 0.85)
            corpus = bits_corpus(
                [
                    "".join("1" if rng.random() < density else "0" for _ in range(width))
                    for _ in range(n)
                ]
            )
            aff = affinity_matrix(corpus)
            ids = list(range(n))
            rng.shuffle(ids)
            cut = rng.randint(1, n - 1)
            left, right = sorted(ids[:cut]), sorted(ids[cut:])
            left_objs = [corpus.objects[i] for i in left]
            right_objs = [corpus.objects[i] for i in right]
            assert _mean(aff, _cross_pairs(left, right)) == distinctiveness(left_objs, right_objs)
            assert _mean(aff, _cross_pairs(right, left)) == distinctiveness(right_objs, left_objs)
            assert _mean(aff, _cross_pairs(left, right)) == distinctiveness(right_objs, left_objs)
            for members, objs in ((left, left_objs), (right, right_objs)):
                if len(members) < 2:
                    continue
                categories_checked += 1
                assert _mean(aff, combinations(members, 2)) == cohesion(objs)
                assert _prototype(members, aff) == make_category(corpus, members).best_member
        assert categories_checked >= 300


class TestReferenceEngine:
    """``engine.run`` against ``reference_run``, the contract with exact means.

    The cases are the 400 golden random corpora (n <= 14), the bundled
    corpora at the README's thresholds and the two runs that end in a
    merge. The engine adds float affinities, so where two candidates
    tie exactly it can rank them by rounding. ``DIFFERENT`` holds each
    case where it does, with the first decision that differs as
    ((what, index), reference, engine): a trace step, or the prototype
    of a category. Each is an exact tie, which the reference gives to
    the lower id.
    """

    DIFFERENT = {
        "random-033": (("prototype", 0), 9, 11),
        "random-049": (("step", 6), ("add", (2,), 0, None), ("add", (9,), 0, None)),
        "random-067": (("step", 4), ("add", (2,), 0, None), ("add", (12,), 0, None)),
        "random-084": (("prototype", 0), 1, 9),
        "random-141": (("step", 3), ("add", (6,), 0, None), ("add", (11,), 0, None)),
        "random-215": (("step", 6), ("add", (3,), 0, None), ("add", (10,), 0, None)),
        "random-258": (("step", 3), ("add", (2,), 0, None), ("add", (6,), 0, None)),
        "random-364": (("step", 4), ("add", (5,), 0, None), ("add", (10,), 0, None)),
    }

    @staticmethod
    def cases():
        yield from random_cases()
        yield "shapes", datasets.shapes_corpus(), Parameters(0.05, 0.05)
        yield "abstracts", datasets.abstracts_corpus(), Parameters(0.005, 0.05)
        for k, (rows, params, *_) in enumerate(TestRunAcceptsAMerge.CASES):
            yield f"merge-{k}", bits_corpus(rows), params

    @staticmethod
    def first_difference(want, got):
        for k, (ours, theirs) in enumerate(zip(want[0], got[0])):
            if ours != theirs:
                return ("step", k), ours, theirs
        for k, ((members, ours), (same, theirs)) in enumerate(zip(want[1], got[1])):
            if ours != theirs and members == same:
                return ("prototype", k), ours, theirs
        return None

    @staticmethod
    def outcome(corpus, params):
        """``engine.run`` as ``reference_run`` reports it: (trace, categories, unclustered)."""
        result = run(corpus, params)
        return (
            tuple((s.action, s.objects, s.category, s.merged_from) for s in result.trace),
            tuple((c.members, c.best_member) for c in result.field.categories),
            result.field.unclustered,
        )

    @staticmethod
    def exact_means(corpus, params, difference):
        """The exact means behind the reference's and the engine's choice at a difference.

        For a step, the cohesion of the category each step makes from the
        field before it; for a prototype, each member's mean affinity to
        the rest. They are equal when the difference is an exact tie.
        """
        (what, k), ours, theirs = difference
        aff = affinity_matrix(corpus)
        if what == "prototype":
            members = reference_run(corpus, params)[1][k][0]
            choices = [[(i, j) for j in members if j != i] for i in (ours, theirs)]
        else:
            fields = [ConceptField.initial(len(corpus))]
            run(corpus, params, on_action=lambda field, step: fields.append(field))
            before = fields[k].categories  # the same field for both: the steps so far agree

            def made(step):
                action, objects, index, merged_from = step
                replaced = merged_from or ((index,) if action == "add" else ())
                return sorted(objects + tuple(i for c in replaced for i in before[c].members))

            choices = [list(combinations(made(step), 2)) for step in (ours, theirs)]
        return [
            sum((Fraction(aff[i][j]) for i, j in pairs), Fraction(0)) / len(pairs)
            for pairs in choices
        ]

    def test_the_engine_equals_the_reference_but_on_exact_ties(self):
        seen: Counter[str] = Counter()
        for name, corpus, params in self.cases():
            got = self.outcome(corpus, params)
            want = reference_run(corpus, params)
            if name in self.DIFFERENT:
                assert self.first_difference(want, got) == self.DIFFERENT[name], name
                seen["different"] += 1
                continue
            assert got == want, name
            seen[f"{len(want[1])} categories"] += 1
            seen.update(step[0] for step in want[0])
        assert seen["different"] == len(self.DIFFERENT)
        cases = sum(seen[f"{k} categories"] for k in range(5)) + seen["different"]
        assert cases == 404 and seen["0 categories"] and seen["2 categories"], seen
        assert min(seen[action] for action in ("protoseed", "add", "merge")) > 0, seen

    def test_each_difference_is_an_exact_tie(self):
        for name, corpus, params in random_cases():
            if name in self.DIFFERENT:
                ours, theirs = self.exact_means(corpus, params, self.DIFFERENT[name])
                assert ours == theirs, name


class TestReferenceEngineMidSize:
    """``engine.run`` against ``reference_run`` on planted corpora of n 20 to 40.

    Each seed's corpus copies four prototypes of 40 bits with 10% of the
    bits flipped, at the benchmark's thresholds (0.3, 0.15). ``DIFFERENT``
    holds, by seed, each run whose first decision differs, as in
    ``TestReferenceEngine``; each is an exact tie that the float sums rank
    by rounding.
    """

    PARAMS = Parameters(0.3, 0.15)
    SEEDS = range(1, 29)
    DIFFERENT = {
        3: (("step", 9), ("add", (0,), 1, None), ("add", (22,), 1, None)),
    }

    def test_the_engine_equals_the_reference_but_on_exact_ties(self):
        different = 0
        for seed in self.SEEDS:
            corpus, _ = planted_corpus(seed, 20 + seed % 21)
            got = TestReferenceEngine.outcome(corpus, self.PARAMS)
            want = reference_run(corpus, self.PARAMS)
            if seed in self.DIFFERENT:
                difference = TestReferenceEngine.first_difference(want, got)
                assert difference == self.DIFFERENT[seed], seed
                ours, theirs = TestReferenceEngine.exact_means(corpus, self.PARAMS, difference)
                assert ours == theirs, seed
                different += 1
            else:
                assert got == want, seed
        assert different == len(self.DIFFERENT)


class TestRelabelling:
    """Renumbering the objects is not a symmetry of the lowest-id contract.

    Affinities take few distinct values, so exact ties are common, and the
    contract gives each to the lowest id. Each corpus of
    ``TestReferenceEngineMidSize``'s kind, seeds 1 to 60 at (0.30, 0.15),
    is run again with its objects renumbered by one seeded permutation,
    and that run, mapped back to the old ids, is compared with the first.
    Traces and final categories change, for the reference and the engine
    alike. This is a record, not a gate: no check of the engine may
    assume that renumbering keeps a run.
    """

    PARAMS = Parameters(0.3, 0.15)
    CATEGORIES_CHANGE = [1, 15, 27, 44, 59]

    @staticmethod
    def renumbered(seed):
        """The seed's corpus, the same corpus renumbered, and each new id's old id."""
        corpus, _ = planted_corpus(seed, 20 + seed % 21)
        old = random.Random(f"relabel:{seed}").sample(range(len(corpus)), len(corpus))
        objects = tuple(replace(corpus.objects[i], id=new) for new, i in enumerate(old))
        return corpus, Corpus(corpus.space, objects), old

    @staticmethod
    def mapped_back(outcome, old):
        """The trace and the set of member sets of a run, in ``reference_run``'s shape, in old ids."""
        trace, categories, _ = outcome
        steps = [(a, tuple(sorted(old[i] for i in ids)), k, m) for a, ids, k, m in trace]
        return steps, {tuple(sorted(old[i] for i in members)) for members, _ in categories}

    @pytest.mark.parametrize(
        "outcome, traces",
        [(reference_run, 30), (TestReferenceEngine.outcome, 31)],
        ids=["reference", "engine"],
    )
    def test_renumbering_changes_traces_and_some_final_categories(self, outcome, traces):
        trace_changes, category_changes = 0, []
        for seed in range(1, 61):
            corpus, other, old = self.renumbered(seed)
            want = self.mapped_back(outcome(corpus, self.PARAMS), range(len(corpus)))
            got = self.mapped_back(outcome(other, self.PARAMS), old)
            trace_changes += got[0] != want[0]
            if got[1] != want[1]:
                category_changes.append(seed)
        assert trace_changes == traces
        assert category_changes == self.CATEGORIES_CHANGE


class TestPlantedRecovery:
    """At (0.40, 0.15) the hunts recover four planted prototypes of n 40, unmixed.

    Each corpus copies four prototypes of 40 bits with 10% of the bits
    flipped. Each run forms four categories whose majority prototypes
    differ, no clustered object copies another prototype than its
    category's majority, and every best member copies that majority.
    At the benchmark's (0.30, 0.15) the same seeds misplace objects, and
    seed 3 misplaces 2 even here, so neither is pinned.
    """

    PARAMS = Parameters(0.40, 0.15, 0.5)

    @pytest.mark.parametrize("seed", [1, 2, 4, 5])
    def test_each_category_copies_one_prototype(self, seed):
        corpus, planted = planted_corpus(seed, 40)
        categories = run(corpus, self.PARAMS).field.categories
        majority = [
            Counter(planted[i] for i in cat.members).most_common(1)[0][0] for cat in categories
        ]
        assert len(categories) == len(set(majority)) == 4
        for cat, prototype in zip(categories, majority):
            assert {planted[i] for i in cat.members} == {prototype}
            assert planted[cat.best_member] == prototype

    @staticmethod
    def misplaced(clusters, planted):
        """Objects that copy another prototype than their cluster's majority."""
        return sum(len(c) - Counter(planted[i] for i in c).most_common(1)[0][1] for c in clusters)

    @pytest.mark.parametrize("seed", [1, 2, 4, 5])
    def test_each_category_lies_inside_one_group_average_cluster(self, seed):
        # a record of how the engine compares with a traditional baseline, not a gate on either
        corpus, planted = planted_corpus(seed, 40)
        clusters = group_average(affinity_matrix(corpus), 4)
        assert self.misplaced(clusters, planted) == 0
        for cat in run(corpus, self.PARAMS).field.categories:
            assert sum(set(cat.members) <= set(c) for c in clusters) == 1

    def test_group_average_misplaces_one_of_960_at_n_60(self):
        # a record of the baseline on sixteen planted corpora of n 60, not a gate on it
        misplaced = {}
        for seed in range(1, 17):
            corpus, planted = planted_corpus(seed, 60)
            misplaced[seed] = self.misplaced(group_average(affinity_matrix(corpus), 4), planted)
        assert {seed: m for seed, m in misplaced.items() if m} == {13: 1}


class TestGroupAverage:
    """The baseline merges the pair of highest mean cross affinity, ties to the lowest ids."""

    AFF = (
        (0.0, 0.5, 0.1, 0.1),
        (0.5, 0.0, 0.1, 0.3),
        (0.1, 0.1, 0.0, 0.5),
        (0.1, 0.3, 0.5, 0.0),
    )

    def test_merges_by_mean_cross_affinity(self):
        assert group_average(self.AFF, 4) == ((0,), (1,), (2,), (3,))
        # (0, 1) and (2, 3) tie at 0.5: the lower pair merges first
        assert group_average(self.AFF, 3) == ((0, 1), (2,), (3,))
        assert group_average(self.AFF, 2) == ((0, 1), (2, 3))
        assert group_average(self.AFF, 1) == ((0, 1, 2, 3),)

    def test_the_mean_is_over_every_cross_pair(self):
        # 2's mean affinity to (0, 1) is 0.25, below its 0.3 to 3, though its affinity to 1 is 0.5
        aff = ((0.0, 0.9, 0.0, 0.0), (0.9, 0.0, 0.5, 0.0), (0.0, 0.5, 0.0, 0.3), (0.0, 0.0, 0.3, 0.0))
        assert group_average(aff, 2) == ((0, 1), (2, 3))

    def test_no_cut_of_shapes_holds_the_two_of_three_partition(self, shapes_corpus):
        # a record, not a gate: acceptance criterion 2's target is no node of the dendrogram
        labels = [obj.label for obj in shapes_corpus.objects]
        aff = affinity_matrix(shapes_corpus)
        cuts = {
            k: [{labels[i] for i in c} for c in group_average(aff, k)] for k in range(8, 0, -1)
        }
        for target in ({"csb", "csw", "cab", "qsb"}, {"caw", "qsw", "qab", "qaw"}):
            assert all(target not in clusters for clusters in cuts.values())
        # two clusters split the shapes by shape, as the engine's one circular face does
        assert cuts[2] == [{"csb", "csw", "cab", "caw"}, {"qsb", "qsw", "qab", "qaw"}]


class TestMeanKernelOrder:
    """``_mean`` adds in the order given, never compensated, on every Python."""

    # 1e16 + 1.0 rounds back to 1e16, so the order of the three terms shows in the sum
    AFF = ((0.0, 1e16, 1.0), (1e16, 0.0, 1.0), (1.0, 1.0, 0.0))

    def test_adds_left_to_right(self):
        pairs = [(0, 1), (0, 2), (1, 2)]
        total = 0.0
        for i, j in pairs:
            total += self.AFF[i][j]
        assert _mean(self.AFF, pairs) == total / 3 == 1e16 / 3
        assert _mean(self.AFF, pairs) != math.fsum(self.AFF[i][j] for i, j in pairs) / 3

    def test_order_is_the_callers(self):
        assert _mean(self.AFF, combinations(range(3), 2)) == 1e16 / 3
        assert _mean(self.AFF, [(1, 2), (0, 2), (0, 1)]) == (1e16 + 2.0) / 3 != 1e16 / 3

    def test_cross_pairs_do_not_depend_on_the_side(self):
        left, right = (5, 0, 3), (4, 1)
        pairs = _cross_pairs(left, right)
        assert pairs == _cross_pairs(right, left)
        assert pairs == [(0, 1), (0, 4), (1, 3), (1, 5), (3, 4), (4, 5)]


class TestLayerCallsGoThroughModuleAttributes:
    """The benchmark's tracer wraps these module attributes to time each layer.

    A refactor that called a local alias instead would leave every
    output unchanged and silently blind the per-layer metrics.
    """

    def test_every_wrapped_layer_is_called(self, monkeypatch, shapes_corpus):
        params = Parameters(0.05, 0.05)
        expected = run(shapes_corpus, params).report
        calls: Counter[str] = Counter()
        wrapped = [
            (engine, "affinity_matrix"),
            (engine, "protoseed_hunt"),
            (engine, "object_hunt"),
            (engine, "merge_hunt"),
            (information, "affinity"),
            (description, "polymorphous_rule"),
            (description, "render_report"),
        ]
        for module, name in wrapped:

            def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        result = run(shapes_corpus, params)
        assert set(calls) == {name for _, name in wrapped}
        assert calls["affinity"] == 28  # one per pair of the 8 shapes
        assert result.report == expected


class TestFrozenRegressions:
    """Pinned outcomes of the frozen cohesion and contrast statistics."""

    def test_shapes_corpus_clusters_into_one_attribute_face(self, shapes_corpus):
        result = run(shapes_corpus, Parameters(0.05, 0.05))
        assert [c.members for c in result.field.categories] == [(0, 1, 2, 3)]
        assert result.field.unclustered == (4, 5, 6, 7)
        cat = result.field.categories[0]
        assert cat.cohesion == pytest.approx(0.054469444, abs=1e-9)
        assert shapes_corpus.objects[cat.best_member].label == "csb"
        assert cat.rule is not None and cat.rule.m == 3
        labels = shapes_corpus.space.labels
        assert [labels[f] for f in cat.rule.feature_set] == [
            "circular", "symmetric", "asymmetric", "black", "white",
        ]
        assert [labels[f] for f in cat.rule.necessary] == ["circular"]
        assert "at least 3 out of {circular, symmetric, asymmetric, black, white}" in result.report
        assert len(result.trace) == 3

    def test_shapes_corpus_unclustered_at_higher_thresholds(self, shapes_corpus):
        result = run(shapes_corpus, Parameters(0.10, 0.05))
        assert result.field.categories == ()
        assert "no categories formed; 8 objects unclustered" in result.report

    def test_abstracts_pair_with_shared_keyword_seeds_at_low_threshold(
        self, abstracts_corpus
    ):
        result = run(abstracts_corpus, Parameters(0.005, 0.05))
        assert len(result.field.categories) == 1
        cat = result.field.categories[0]
        names = {abstracts_corpus.objects[i].label for i in cat.members}
        assert names == {"abstract 5", "abstract 7"}
        assert cat.cohesion == pytest.approx(0.006644577, abs=1e-9)
        rule = cat.rule
        assert rule is not None
        labels = abstracts_corpus.space.labels
        assert labels[rule.feature_set[0]] == "VISUAL STIMULATION"
        assert [labels[f] for f in rule.necessary] == ["VISUAL STIMULATION"]
        assert len(result.trace) == 1

    def test_abstracts_defaults_leave_everything_unclustered(self, abstracts_corpus):
        result = run(abstracts_corpus, DEFAULTS)
        assert result.field.categories == ()
        assert "no categories formed; 7 objects unclustered" in result.report
