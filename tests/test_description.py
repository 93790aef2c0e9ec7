"""Prototype extraction, m-of-n rules, misclassification, and reports."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from conftest import (
    best_member,
    bits_corpus,
    make_category,
    misclassification,
    scan_feature_frequencies,
    scan_polymorphous_rule,
)
from polyclust import datasets
from polyclust.description import (
    feature_frequencies,
    polymorphous_rule,
    render_report,
)
from polyclust.engine import field_valid, run
from polyclust.model import Category, ConceptField, Parameters, PolymorphousRule


def two_of_three_field(shapes_corpus):
    """The two polymorphous at-least-2-of-3 categories over the shapes corpus."""
    a = make_category(shapes_corpus, (0, 1, 2, 4))  # csb csw cab qsb
    b = make_category(shapes_corpus, (3, 5, 6, 7))  # caw qsw qab qaw
    field = ConceptField((a, b), ())
    clustered = field.clustered()
    a = dataclasses.replace(
        a, rule=polymorphous_rule(a, shapes_corpus, 0.5, clustered=clustered)
    )
    b = dataclasses.replace(
        b, rule=polymorphous_rule(b, shapes_corpus, 0.5, clustered=clustered)
    )
    return ConceptField((a, b), ())


class TestFeatureFrequencies:
    def test_identical_members(self):
        corpus = bits_corpus(["1100", "1100"])
        cat = make_category(corpus, (0, 1))
        assert feature_frequencies(cat, corpus) == (1.0, 1.0, 0.0, 0.0)

    def test_half_shared(self):
        corpus = bits_corpus(["1100", "1010"])
        cat = Category((0, 1), 0.0, 0)
        assert feature_frequencies(cat, corpus) == (1.0, 0.5, 0.5, 0.0)

    def test_two_of_three_category(self, shapes_corpus):
        cat = make_category(shapes_corpus, (0, 1, 2, 4))
        freqs = feature_frequencies(cat, shapes_corpus)
        labels = shapes_corpus.space.labels
        by_label = dict(zip(labels, freqs))
        assert by_label["circular"] == 0.75
        assert by_label["symmetric"] == 0.75
        assert by_label["black"] == 0.75


class TestBestMember:
    def test_symmetric_tie_goes_to_lowest_id(self):
        corpus = bits_corpus(["1100", "1100"])
        assert best_member(Category((0, 1), 1.0, 0), corpus) == 0

    def test_duplicate_pair_beats_outlier(self):
        corpus = bits_corpus(["1100", "1100", "1010"])
        cat = Category((0, 1, 2), 1.0 / 3.0, 0)
        assert best_member(cat, corpus) == 0

    def test_prototype_of_two_of_three_category(self, shapes_corpus):
        # csb holds all three frequent features and tops the mean affinity
        cat = make_category(shapes_corpus, (0, 1, 2, 4))
        assert shapes_corpus.objects[best_member(cat, shapes_corpus)].label == "csb"

    def test_singleton_rejected_by_type(self):
        with pytest.raises(ValueError, match="at least 2"):
            Category((0,), 0.0, 0)

    def test_invariant_under_feature_relabeling(self, shapes_corpus):
        cat = make_category(shapes_corpus, (0, 1, 2, 4))
        renamed = bits_corpus(
            ["".join(map(str, o.bits)) for o in shapes_corpus.objects],
            labels=[o.label for o in shapes_corpus.objects],
            features=[f"x{i}" for i in range(6)],
        )
        assert best_member(cat, renamed) == best_member(cat, shapes_corpus)

    def test_invariant_under_all_zero_padding(self):
        corpus = bits_corpus(["1100", "1100", "1010"])
        padded = bits_corpus(["110000", "110000", "101000"])
        cat = Category((0, 1, 2), 0.0, 0)
        assert best_member(cat, corpus) == best_member(cat, padded) == 0


class TestPolymorphousRule:
    def test_identical_members_all_necessary(self):
        corpus = bits_corpus(["1100", "1100"])
        cat = make_category(corpus, (0, 1))
        rule = polymorphous_rule(cat, corpus, 0.5, clustered=range(len(corpus)))
        assert rule.feature_set == (0, 1)
        assert rule.m == 2
        assert rule.necessary == (0, 1)
        assert not rule.polymorphous

    def test_pure_polymorphy_without_necessary_features(self):
        corpus = bits_corpus(["110", "101", "011"])
        cat = make_category(corpus, (0, 1, 2))
        rule = polymorphous_rule(cat, corpus, 0.5, clustered=range(len(corpus)))
        assert rule.feature_set == (0, 1, 2)
        assert rule.m == 2
        assert rule.necessary == ()
        assert rule.polymorphous

    def test_two_of_three_categories(self, shapes_corpus):
        field = two_of_three_field(shapes_corpus)
        labels = shapes_corpus.space.labels
        rule_a = field.categories[0].rule
        rule_b = field.categories[1].rule
        assert [labels[f] for f in rule_a.feature_set] == ["circular", "symmetric", "black"]
        assert rule_a.m == 2 and rule_a.necessary == () and rule_a.polymorphous
        assert [labels[f] for f in rule_b.feature_set] == ["square", "asymmetric", "white"]
        assert rule_b.m == 2 and rule_b.necessary == ()

    def test_feature_set_ordered_by_frequency_then_index(self):
        corpus = bits_corpus(["0111", "0111", "1110"])
        cat = make_category(corpus, (0, 1, 2))
        rule = polymorphous_rule(cat, corpus, 0.5, clustered=range(len(corpus)))
        # frequencies: f0 1/3 (out), f1 1.0, f2 1.0, f3 2/3
        assert rule.feature_set == (1, 2, 3)

    def test_alpha_too_high_gives_no_rule(self):
        corpus = bits_corpus(["110", "101", "011"])
        cat = make_category(corpus, (0, 1, 2))
        assert polymorphous_rule(cat, corpus, 0.9, clustered=range(len(corpus))) is None

    def test_necessary_subset_of_feature_set(self):
        corpus = bits_corpus(["1101", "1011", "1111", "1001"])
        cat = make_category(corpus, (0, 1, 2, 3))
        for alpha in (0.2, 0.5, 0.75, 1.0):
            rule = polymorphous_rule(cat, corpus, alpha, clustered=range(len(corpus)))
            assert set(rule.necessary) <= set(rule.feature_set)

    def test_sufficient_judged_against_clustered_objects_only(self):
        corpus = bits_corpus(["1100", "1100", "1010", "0001"])
        cat = make_category(corpus, (0, 1))
        # object 2 is clustered elsewhere; object 3 is unclustered residue
        rule = polymorphous_rule(cat, corpus, 0.5, clustered=(0, 1, 2))
        assert rule.sufficient == (1,)  # feature 0 also occurs in object 2

    def test_false_alarm_rate_counts_clustered_non_members(self):
        corpus = bits_corpus(["1100", "1100", "1100", "0011"])
        cat = make_category(corpus, (0, 1))
        rule = polymorphous_rule(cat, corpus, 0.5, clustered=(0, 1, 2, 3))
        assert rule.false_alarm_rate == 0.5  # object 2 matches, object 3 does not


class TestRuleExtractionEqualsTheColumnScan:
    """Rules read from the feature bitmaps equal those from Counter, set and count scans."""

    def test_member_with_no_rule_feature_gives_m_0(self):
        corpus = bits_corpus(["1100", "1100", "0001", "1101"])
        cat = Category((0, 1, 2), 0.0, 0)
        for clustered in ((0, 1, 2), (0, 1, 2, 3)):
            rule = polymorphous_rule(cat, corpus, 0.5, clustered)
            assert rule == scan_polymorphous_rule(cat, corpus, 0.5, clustered)
            assert (rule.m, rule.feature_set) == (0, (0, 1))
        assert rule.false_alarm_rate == 1.0 and rule.sufficient == ()

    def test_seeded_corpora(self):
        rng = random.Random(1717)
        seen: Counter[str] = Counter()
        for case in range(300):
            n = rng.choice((2, 3, 7, 12, 29, 31, 61, 65, 130))
            width = rng.randint(1, 30)
            density = rng.uniform(0.05, 0.95)
            rows = [
                "".join("1" if rng.random() < density else "0" for _ in range(width))
                for _ in range(n)
            ]
            corpus = bits_corpus(rows)
            members = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
            cat = Category(members, 0.0, members[0])
            rest = [i for i in range(n) if i not in members]
            clustered = members + tuple(rng.sample(rest, rng.randint(0, len(rest))))
            if case % 5 == 0:
                clustered = members
            alpha = rng.choice((rng.uniform(0.01, 1.0), 0.5, 1.0))
            assert feature_frequencies(cat, corpus) == scan_feature_frequencies(cat, corpus)
            rule = polymorphous_rule(cat, corpus, alpha, clustered)
            want = scan_polymorphous_rule(cat, corpus, alpha, clustered)
            assert rule == want, (rows, members, clustered, alpha)
            seen["no rule"] += rule is None
            if rule is not None:
                seen["m = 0"] += rule.m == 0
                seen["polymorphous"] += rule.polymorphous
                seen["no clustered outsiders"] += len(clustered) == len(members)
                seen["false alarms"] += rule.false_alarm_rate > 0.0
                seen["no false alarms, with outsiders"] += (
                    rule.false_alarm_rate == 0.0 and len(clustered) > len(members)
                )
                seen["sufficient"] += bool(rule.sufficient)
                seen["necessary"] += bool(rule.necessary)
        assert min(seen.values()) > 0 and len(seen) == 8, seen

    def test_bundled_runs(self, shapes_corpus):
        titled = datasets.abstracts_corpus(with_title_tokens=True)
        rules = []
        for corpus, params in (
            (shapes_corpus, Parameters(0.05, 0.05)),
            (titled, Parameters(0.01, 0.0)),
            (titled, Parameters(0.0, 0.0, 0.3)),
        ):
            result = run(corpus, params)
            clustered = result.field.clustered()
            for cat in result.field.categories:
                want = scan_polymorphous_rule(cat, corpus, params.rule_alpha, clustered)
                assert cat.rule == want
                rules.append(cat.rule)
        assert len(rules) == 3 and all(rule.polymorphous for rule in rules)


class TestMisclassification:
    def test_two_of_three_field_is_clean(self, shapes_corpus):
        field = two_of_three_field(shapes_corpus)
        for cat in field.categories:
            assert misclassification(cat.rule, cat, field, shapes_corpus) == (0, 0)

    def test_universal_feature_alarms_everywhere(self):
        corpus = bits_corpus(["110", "110", "100", "101"])
        field = ConceptField(
            (make_category(corpus, (0, 1)), make_category(corpus, (2, 3))), ()
        )
        rule = PolymorphousRule(1, (0,), (0,), (), 1.0)
        alarms, misses = misclassification(rule, field.categories[0], field, corpus)
        assert (alarms, misses) == (2, 0)

    def test_sufficient_only_rule_never_alarms(self):
        corpus = bits_corpus(["1100", "1100", "0011", "0011"])
        field = ConceptField(
            (make_category(corpus, (0, 1)), make_category(corpus, (2, 3))), ()
        )
        cat = field.categories[0]
        rule = polymorphous_rule(cat, corpus, 0.5, clustered=field.clustered())
        assert set(rule.sufficient) == {0, 1}
        assert misclassification(rule, cat, field, corpus) == (0, 0)


class TestRenderReport:
    def test_two_of_three_sentences(self, shapes_corpus):
        field = two_of_three_field(shapes_corpus)
        params = Parameters(0.04, 0.01)
        validity = field_valid(field, shapes_corpus, params)
        assert validity.ok
        text = render_report(field, shapes_corpus, validity, (), params)
        assert "at least 2 out of {circular, symmetric, black}" in text
        assert "at least 2 out of {square, asymmetric, white}" in text
        assert "best member: csb" in text
        assert "margins (bits): vs category 2: 0.010213" in text

    def test_empty_field_sentence(self):
        corpus = bits_corpus(["10", "01", "11"])
        field = ConceptField.initial(3)
        params = Parameters()
        validity = field_valid(field, corpus, params)
        text = render_report(field, corpus, validity, (), params)
        assert "no categories formed; 3 objects unclustered" in text
        assert "unclustered: o0, o1, o2" in text

    def test_necessary_features_listed_for_identical_members(self):
        corpus = bits_corpus(["1100", "1100"])
        cat = make_category(corpus, (0, 1))
        rule = polymorphous_rule(cat, corpus, 0.5, clustered=range(len(corpus)))
        cat = dataclasses.replace(cat, rule=rule)
        field = ConceptField((cat,), ())
        params = Parameters()
        text = render_report(field, corpus, field_valid(field, corpus, params), (), params)
        assert "necessary: f0, f1" in text

    def test_guaranteed_polymorphy_on_two_of_three_field(self, shapes_corpus):
        # no single feature separates either category, so both rules have m < n
        field = two_of_three_field(shapes_corpus)
        for cat in field.categories:
            rule = cat.rule
            assert rule.m <= rule.n
            counts = [shapes_corpus.objects[i].count(rule.feature_set) for i in cat.members]
            assert min(counts) == rule.m
            assert rule.polymorphous
