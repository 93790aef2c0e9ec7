"""Engine states, hunts, escalation, and frozen run regressions."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import best_member, bits_corpus, cohesion, distinctiveness, make_category
from polyclust import description, emit_json, engine, information, run
from polyclust.engine import (
    EngineState,
    Mode,
    _mean_across,
    _mean_within,
    _new_category,
    affinity_matrix,
    field_valid,
    merge_hunt,
    object_hunt,
    protoseed_hunt,
)
from polyclust.model import ConceptField, Corpus, Parameters


def state(corpus: Corpus, mode: Mode, categories=(), unclustered=None) -> EngineState:
    cats = tuple(make_category(corpus, ids) for ids in categories)
    if unclustered is None:
        taken = {i for ids in categories for i in ids}
        unclustered = tuple(i for i in range(len(corpus)) if i not in taken)
    return EngineState(mode, ConceptField(cats, tuple(unclustered)))


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
        assert validity.margin(0) is None

    def test_copied_categories_have_zero_margin(self):
        corpus = bits_corpus(["1100", "1100", "1100", "1100"])
        field = ConceptField(
            (make_category(corpus, (0, 1)), make_category(corpus, (2, 3))), ()
        )
        validity = field_valid(field, corpus, DEFAULTS)
        assert not validity.ok
        assert validity.cohesions == (1.0, 1.0)
        assert validity.margin(0) == 0.0


class TestProtoseedHunt:
    def test_promotes_best_pair(self):
        corpus = bits_corpus(["1100", "1100", "0011"])
        got = protoseed_hunt(state(corpus, Mode.PROTOSEED_HUNTING), affinity_matrix(corpus), DEFAULTS)
        assert got is not None
        assert got.members == (0, 1)
        assert got.cohesion == 1.0

    def test_all_independent_is_impasse(self):
        corpus = bits_corpus(["1100", "1010", "0110"])
        assert protoseed_hunt(state(corpus, Mode.PROTOSEED_HUNTING), affinity_matrix(corpus), DEFAULTS) is None

    def test_single_object_is_impasse(self):
        corpus = bits_corpus(["1100"])
        assert protoseed_hunt(state(corpus, Mode.PROTOSEED_HUNTING), affinity_matrix(corpus), DEFAULTS) is None

    def test_tie_breaks_to_smallest_id_pair(self):
        corpus = bits_corpus(["1100", "1100", "1100"])
        got = protoseed_hunt(state(corpus, Mode.PROTOSEED_HUNTING), affinity_matrix(corpus), DEFAULTS)
        assert got is not None and got.members == (0, 1)

    def test_rejected_when_field_would_go_invalid(self):
        # a second copy of an existing category has zero margin
        corpus = bits_corpus(["1100", "1100", "1100", "1100"])
        st = state(corpus, Mode.PROTOSEED_HUNTING, categories=((0, 1),))
        assert protoseed_hunt(st, affinity_matrix(corpus), DEFAULTS) is None

    def test_mode_precondition(self):
        corpus = bits_corpus(["1100", "1100"])
        with pytest.raises(ValueError, match="expected mode"):
            protoseed_hunt(state(corpus, Mode.OBJECT_HUNTING), affinity_matrix(corpus), DEFAULTS)


class TestObjectHunt:
    def test_adds_duplicate_keeping_cohesion(self):
        corpus = bits_corpus(["1100", "1100", "1100"])
        st = state(corpus, Mode.OBJECT_HUNTING, categories=((0, 1),))
        assert object_hunt(st, affinity_matrix(corpus), DEFAULTS) == (2, 0)

    def test_rejects_addition_that_drops_cohesion(self):
        corpus = bits_corpus(["1100", "1100", "0011"])
        st = state(corpus, Mode.OBJECT_HUNTING, categories=((0, 1),))
        assert object_hunt(st, affinity_matrix(corpus), DEFAULTS) is None  # new W would be 1/3 < 0.4

    def test_no_unclustered_is_impasse(self):
        corpus = bits_corpus(["1100", "1100"])
        st = state(corpus, Mode.OBJECT_HUNTING, categories=((0, 1),))
        assert object_hunt(st, affinity_matrix(corpus), DEFAULTS) is None

    def test_requires_a_category(self):
        corpus = bits_corpus(["1100", "1100"])
        with pytest.raises(ValueError, match="at least one category"):
            object_hunt(state(corpus, Mode.OBJECT_HUNTING), affinity_matrix(corpus), DEFAULTS)


class TestMergeHunt:
    def test_merges_identical_categories(self):
        corpus = bits_corpus(["1100", "1100", "1100", "1100"])
        st = state(corpus, Mode.PROTOTYPE_MERGING, categories=((0, 1), (2, 3)))
        # the two-copy field is invalid as it stands, but the merge repairs it
        assert merge_hunt(st, affinity_matrix(corpus), DEFAULTS) == (0, 1)

    def test_rejects_merge_below_cohesion_threshold(self):
        corpus = bits_corpus(["1100", "1100", "0011", "0011"])
        st = state(corpus, Mode.PROTOTYPE_MERGING, categories=((0, 1), (2, 3)))
        assert merge_hunt(st, affinity_matrix(corpus), DEFAULTS) is None  # merged W = 1/3 < 0.4

    def test_single_category_is_impasse(self):
        corpus = bits_corpus(["1100", "1100"])
        st = state(corpus, Mode.PROTOTYPE_MERGING, categories=((0, 1),))
        assert merge_hunt(st, affinity_matrix(corpus), DEFAULTS) is None


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

    def test_post_run_field_is_valid(self):
        rng = random.Random(4242)
        for _ in range(15):
            n = rng.randint(2, 10)
            corpus = bits_corpus(
                ["".join(str(rng.randint(0, 1)) for _ in range(6)) for _ in range(n)]
            )
            params = Parameters(rng.uniform(0, 0.4), rng.uniform(0, 0.2))
            result = run(corpus, params)
            if result.field.categories:
                assert result.validity.ok
                assert field_valid(result.field, corpus, params).ok


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
            assert _mean_across(aff, left, right) == distinctiveness(left_objs, right_objs)
            assert _mean_across(aff, right, left) == distinctiveness(right_objs, left_objs)
            assert _mean_across(aff, left, right) == distinctiveness(right_objs, left_objs)
            for unsorted, members, objs in (
                (ids[:cut], left, left_objs),
                (ids[cut:], right, right_objs),
            ):
                if len(members) < 2:
                    continue
                categories_checked += 1
                assert _mean_within(aff, members) == cohesion(objs)
                category = _new_category(unsorted, aff)
                assert category.members == tuple(members)
                assert category.cohesion == cohesion(objs)
                assert category.best_member == best_member(category, corpus)
        assert categories_checked >= 300


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
