"""Corpus validation, parameters, and the immutable field types."""

from __future__ import annotations

import random

import pytest

from conftest import bits_corpus, make_category
from polyclust.model import (
    Category,
    ConceptField,
    Corpus,
    CorpusError,
    FeatureSpace,
    ObjectInstance,
    ParameterError,
    Parameters,
    PolymorphousRule,
    validate_corpus,
)


class TestFeatureSpace:
    def test_empty_rejected(self):
        with pytest.raises(CorpusError, match="empty"):
            FeatureSpace(())

    def test_duplicate_rejected(self):
        with pytest.raises(CorpusError, match="duplicate feature"):
            FeatureSpace((("shape", "round"), ("shape", "round")))

    def test_display_labels_prefer_bare_values(self):
        space = FeatureSpace(
            (("shape", "circular"), ("shape", "square"), ("color", "black"))
        )
        assert space.labels == ("circular", "square", "black")

    def test_display_labels_qualify_ambiguous_values(self):
        space = FeatureSpace((("a", "yes"), ("b", "yes")))
        assert space.labels == ("a=yes", "b=yes")

    def test_index_of_resolves_value_and_qualified_forms(self):
        space = FeatureSpace((("shape", "circular"), ("shape", "square")))
        assert space.index_of("circular") == 0
        assert space.index_of("shape=square") == 1
        assert space.index_of("CIRCULAR") == 0

    def test_index_of_resolves_single_feature_attribute(self):
        space = FeatureSpace((("a", "yes"), ("b", "yes")))
        assert space.index_of("a") == 0
        assert space.index_of("b") == 1

    def test_index_of_unknown_label(self):
        space = FeatureSpace((("shape", "circular"),))
        with pytest.raises(CorpusError, match="nope"):
            space.index_of("nope")


class TestValidateCorpus:
    def test_minimal_corpus_ok_no_warnings(self):
        corpus = bits_corpus(["101"])
        validated, warnings = validate_corpus(corpus)
        assert validated is corpus
        assert warnings == []

    def test_duplicate_label(self):
        corpus = bits_corpus(["10", "01"], labels=["same", "same"])
        with pytest.raises(CorpusError, match="duplicate label"):
            validate_corpus(corpus)

    def test_constant_feature_warned_not_removed(self):
        corpus = bits_corpus(["10", "11"])
        validated, warnings = validate_corpus(corpus)
        assert len(validated.space) == 2
        assert len(warnings) == 1
        assert warnings[0].startswith("feature 0 constant")

    def test_bit_length_mismatch(self):
        space = FeatureSpace((("f0", "f0"), ("f1", "f1")))
        objects = (ObjectInstance(0, "a", (1,)),)
        with pytest.raises(CorpusError, match="expected 2 bits"):
            validate_corpus(Corpus(space, objects))

    def test_empty_corpus(self):
        space = FeatureSpace((("f0", "f0"),))
        with pytest.raises(CorpusError, match="empty corpus"):
            validate_corpus(Corpus(space, ()))

    def test_non_binary_bit(self):
        space = FeatureSpace((("f0", "f0"),))
        objects = (ObjectInstance(0, "a", (2,)),)
        with pytest.raises(CorpusError, match="expected 0 or 1"):
            validate_corpus(Corpus(space, objects))

    def test_non_dense_ids(self):
        space = FeatureSpace((("f0", "f0"),))
        objects = (ObjectInstance(1, "a", (1,)),)
        with pytest.raises(CorpusError, match="dense"):
            validate_corpus(Corpus(space, objects))

    def test_object_lookup_by_label(self):
        corpus = bits_corpus(["10", "01"], labels=["left", "right"])
        assert corpus.object_by_label("right").id == 1
        with pytest.raises(CorpusError, match="missing"):
            corpus.object_by_label("missing")


def _oracle_validate(corpus: Corpus) -> tuple[Corpus, list[str]]:
    """The per-bit validation walk that the fast path replaced, kept as an oracle."""
    objs = corpus.objects
    if not objs:
        raise CorpusError("empty corpus")
    width = len(corpus.space)
    seen_labels: dict[str, int] = {}
    for pos, obj in enumerate(objs):
        if obj.id != pos:
            raise CorpusError(
                f"object ids must be dense input-order integers; "
                f"object {obj.label!r} has id {obj.id}, expected {pos}"
            )
        if obj.label in seen_labels:
            raise CorpusError(
                f"duplicate label {obj.label!r} (objects {seen_labels[obj.label]} and {pos})"
            )
        seen_labels[obj.label] = pos
        if len(obj.bits) != width:
            raise CorpusError(f"object {obj.label!r}: expected {width} bits, got {len(obj.bits)}")
        for f, b in enumerate(obj.bits):
            if b not in (0, 1):
                raise CorpusError(f"object {obj.label!r}: bit {f} is {b!r}, expected 0 or 1")
    warnings: list[str] = []
    if len(objs) >= 2:
        for f in range(width):
            column = {obj.bits[f] for obj in objs}
            if len(column) == 1:
                value = column.pop()
                warnings.append(
                    f"feature {f} constant ({corpus.space.labels[f]!r} is {value} in every object)"
                )
    return corpus, warnings


def _validation_outcome(validate, corpus):
    try:
        validated, warnings = validate(corpus)
    except CorpusError as exc:
        return ("CorpusError", str(exc))
    assert validated is corpus
    return ("ok", warnings)


# bits that are not 0 or 1 (one unhashable), and stand-ins that compare equal to them
_BAD_BITS = (2, -1, 0.5, "1", None, [1], float("nan"))
_EQUAL_BITS = (True, False, 1.0, 0.0)


_ERROR_MARKERS = (
    ("id", "dense"),
    ("duplicate", "duplicate label"),
    ("short", "bits, got"),
    ("bit", "expected 0 or 1"),
)


def _outcome_kind(outcome) -> str:
    status, detail = outcome
    if status == "ok":
        return "warned" if detail else "clean"
    return next(kind for kind, marker in _ERROR_MARKERS if marker in detail)


def _corrupt(rng: random.Random, objects: list[ObjectInstance]) -> None:
    """Break one object in place: a bad or equal-valued bit, a short row, a label, an id."""
    pos = rng.randrange(len(objects))
    obj = objects[pos]
    kind = rng.choice(("bit", "short", "duplicate", "id", "equal"))
    bits = list(obj.bits)
    if kind in ("bit", "equal") and bits:
        pool = _BAD_BITS if kind == "bit" else _EQUAL_BITS
        bits[rng.randrange(len(bits))] = rng.choice(pool)
        objects[pos] = ObjectInstance(obj.id, obj.label, tuple(bits))
    elif kind == "short":
        short = tuple(bits[: rng.randrange(len(bits) + 1)])
        objects[pos] = ObjectInstance(obj.id, obj.label, short)
    elif kind == "duplicate":
        objects[pos] = ObjectInstance(obj.id, rng.choice(objects).label, obj.bits)
    elif kind == "id":
        objects[pos] = ObjectInstance(rng.choice((pos + 1, pos - 1, 0)), obj.label, obj.bits)


class TestValidateCorpusAgreesWithBitWalkOracle:
    def test_random_corrupted_corpora(self):
        rng = random.Random("validate-differential")
        outcomes = set()
        for _ in range(600):
            width = rng.randint(1, 8)
            n = rng.randint(1, 8)
            density = rng.choice((0.0, 0.3, 0.5, 1.0))  # 0 and 1 make constant columns
            objects = [
                ObjectInstance(
                    i, f"o{i}", tuple(int(rng.random() < density) for _ in range(width))
                )
                for i in range(n)
            ]
            for _ in range(rng.choice((0, 0, 1, 2, 3))):
                _corrupt(rng, objects)
            space = FeatureSpace(tuple((f"f{f}", f"f{f}") for f in range(width)))
            corpus = Corpus(space, tuple(objects))
            got = _validation_outcome(validate_corpus, corpus)
            assert got == _validation_outcome(_oracle_validate, corpus), objects
            outcomes.add(_outcome_kind(got))
        # every kind of error, plus clean and warned corpora, was reached
        assert outcomes == {"clean", "warned", "id", "duplicate", "short", "bit"}

    def test_constant_column_of_equal_stand_ins_names_the_first(self):
        space = FeatureSpace((("f0", "f0"), ("f1", "f1")))
        objects = (ObjectInstance(0, "a", (True, 0)), ObjectInstance(1, "b", (1, 1.0)))
        corpus = Corpus(space, objects)
        assert validate_corpus(corpus) == _oracle_validate(corpus)
        assert validate_corpus(corpus)[1] == ["feature 0 constant ('f0' is True in every object)"]

    def test_first_offender_in_input_order_is_named(self):
        space = FeatureSpace((("f0", "f0"), ("f1", "f1")))
        objects = (
            ObjectInstance(0, "a", (1, 0)),
            ObjectInstance(1, "b", (0, [1])),
            ObjectInstance(2, "c", (2, 0)),
        )
        with pytest.raises(CorpusError) as caught:
            validate_corpus(Corpus(space, objects))
        assert str(caught.value) == "object 'b': bit 1 is [1], expected 0 or 1"


class TestParameters:
    def test_defaults(self):
        params = Parameters()
        assert params.cohesion_threshold == 0.4
        assert params.distinctiveness_threshold == 0.2
        assert params.rule_alpha == 0.5

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_cohesion_range(self, value):
        with pytest.raises(ParameterError, match="cohesion_threshold"):
            Parameters(cohesion_threshold=value)

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_distinctiveness_range(self, value):
        with pytest.raises(ParameterError, match="distinctiveness_threshold"):
            Parameters(distinctiveness_threshold=value)

    @pytest.mark.parametrize("value", [0.0, -0.5, 1.1])
    def test_alpha_range(self, value):
        with pytest.raises(ParameterError, match="rule_alpha"):
            Parameters(rule_alpha=value)


class TestCategory:
    def test_needs_two_members(self):
        with pytest.raises(ValueError, match="at least 2"):
            Category((3,), 1.0, 3)

    def test_members_sorted_unique(self):
        with pytest.raises(ValueError, match="sorted unique"):
            Category((2, 1), 1.0, 1)
        with pytest.raises(ValueError, match="sorted unique"):
            Category((1, 1), 1.0, 1)

    def test_best_member_inside(self):
        with pytest.raises(ValueError, match="best_member"):
            Category((0, 1), 1.0, 5)

    def test_cached_cohesion_matches_recomputation(self):
        corpus = bits_corpus(["1100", "1100", "1010", "1001"])
        cat = make_category(corpus, (0, 1, 2, 3))
        from conftest import cohesion

        assert abs(cat.cohesion - cohesion(corpus.objects)) <= 1e-12


class TestPolymorphousRule:
    def test_m_bounds(self):
        with pytest.raises(ValueError):
            PolymorphousRule(3, (0, 1), (), (), 0.0)
        with pytest.raises(ValueError):
            PolymorphousRule(1, (), (), (), 0.0)

    def test_polymorphy_flag(self):
        assert PolymorphousRule(2, (0, 1, 2), (), (), 0.0).polymorphous
        assert not PolymorphousRule(2, (0, 1), (), (), 0.0).polymorphous

    def test_satisfied_by(self):
        corpus = bits_corpus(["110", "100"])
        rule = PolymorphousRule(2, (0, 1, 2), (), (), 0.0)
        assert rule.satisfied_by(corpus.objects[0])
        assert not rule.satisfied_by(corpus.objects[1])


class TestConceptField:
    def test_initial_field(self):
        field = ConceptField.initial(3)
        assert field.categories == ()
        assert field.unclustered == (0, 1, 2)
        assert field.is_partition_of(3)

    def test_partition_detects_loss_and_overlap(self):
        corpus = bits_corpus(["11", "11", "10"])
        cat = make_category(corpus, (0, 1))
        assert ConceptField((cat,), (2,)).is_partition_of(3)
        assert not ConceptField((cat,), ()).is_partition_of(3)
        assert not ConceptField((cat,), (1, 2)).is_partition_of(3)
