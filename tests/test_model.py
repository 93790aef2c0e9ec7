"""Corpus checks, parameters, and the immutable field types."""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterator

import pytest

from conftest import (
    bit_ones,
    bits_corpus,
    by_count_scan,
    make_category,
    resolve_name_scan,
    scan_warnings,
    with_rows,
)
from polyclust import datasets, emit_json, run
from polyclust.dataio import one_hot_encode, parse_csv, parse_matrix
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

    def test_index_of_names_both_matches_of_an_ambiguous_label(self):
        space = FeatureSpace((("Visual", "Visual"), ("VISUAL", "VISUAL"), ("x", "x")))
        assert space.index_of("VISUAL") == 1
        assert space.index_of("X") == 2
        message = "ambiguous feature label 'visual': matches 'Visual', 'VISUAL'"
        with pytest.raises(CorpusError, match=message):
            space.index_of("visual")

    def test_index_of_rejects_a_display_label_two_features_share(self):
        """Features ("a=b", "c") and ("a", "b=c") have one attribute=value form, so one label."""
        corpus = one_hot_encode(parse_csv("a=b,a,x\nc,b=c,c\nd,e,b=c\n"))
        space = corpus.space
        assert space.features[0] == ("a=b", "c") and space.features[2] == ("a", "b=c")
        assert space.labels == ("a=b=c", "d", "a=b=c", "e", "x=c", "x=b=c")
        message = "ambiguous feature label 'a=b=c': matches ('a=b', 'c'), ('a', 'b=c')"
        for label in ("a=b=c", "A=B=C"):
            with pytest.raises(CorpusError) as got:
                space.index_of(label)
            assert str(got.value) == message.replace("'a=b=c':", f"{label!r}:")
        # every label held by one feature still resolves to it
        for idx, label in enumerate(space.labels):
            if idx not in (0, 2):
                assert space.index_of(label) == idx

    def test_labels_that_collide_once_qualified_are_qualified_again(self):
        """Qualifying ("x", "b") and ("x=b", "x=b") makes the second collide with ("x=b=x=b", "x=b=x=b")."""
        corpus = one_hot_encode(parse_csv("x,y,x=b,x=b=x=b\nb,b,x=b,x=b=x=b\na,c,q,r\n"))
        space = corpus.space
        assert space.labels == ("x=b", "a", "y=b", "c", "x=b=x=b", "q", "x=b=x=b=x=b=x=b", "r")
        for idx, (attr, value) in enumerate(space.features):
            assert space.index_of(space.labels[idx]) == idx
            assert space.index_of(f"{attr}={value}") == idx

    def test_index_of_unknown_label(self):
        space = FeatureSpace((("shape", "circular"),))
        with pytest.raises(CorpusError, match="nope"):
            space.index_of("nope")

    def test_an_attribute_value_form_two_features_share_is_ambiguous(self):
        """("x", "b=c") and ("x=b", "c") both have the form x=b=c, though their labels differ."""
        corpus = one_hot_encode(parse_csv("x,x=b\nb=c,c\nd,e\n"))
        space = corpus.space
        assert space.features == (("x", "b=c"), ("x", "d"), ("x=b", "c"), ("x=b", "e"))
        assert space.labels == ("b=c", "d", "c", "e")
        for name in ("x=b=c", "X=B=C"):
            with pytest.raises(CorpusError) as got:
                space.index_of(name)
            assert str(got.value) == f"ambiguous feature label {name!r}: matches 'b=c', 'c'"
        for idx, label in enumerate(space.labels):
            assert space.index_of(label) == idx
        assert space.index_of("x=d") == 1 and space.index_of("x=b=e") == 3

    def test_index_of_equals_the_name_oracle(self):
        """Seeded spaces whose names hold "=", shared values and case variants.

        Every third space also holds two features whose ``attribute=value``
        forms coincide, with values that other features share, so that
        two features can share a display label.
        """
        rng = random.Random(1919)
        pieces = ("a", "b", "A", "c")

        def name() -> str:
            return "=".join(rng.choice(pieces) for _ in range(rng.choice((1, 1, 2, 3))))

        seen: Counter[str] = Counter()
        for case in range(400):
            features = [(name(), name()) for _ in range(rng.randint(1, 8))]
            if case % 3 == 0:
                p, q, r, s = name(), name(), name(), name()
                features += [(f"{p}={q}", r), (p, f"{q}={r}"), (s, r), (s, f"{q}={r}")]
            space = FeatureSpace(tuple(dict.fromkeys(features)))
            names = {"zzz", *space.labels, *(name() for _ in range(8))}
            for attr, value in space.features:
                names.update((attr, value, f"{attr}={value}"))
            names.update([n.upper() for n in names] + [n.swapcase() for n in names])
            for label, k in Counter(space.labels).items():
                if k == 1:
                    assert space.index_of(label) == space.labels.index(label), (space, label)
            for query in sorted(names):
                tier, want = resolve_name_scan(space, query)
                if len(want) == 1:
                    assert space.index_of(query) == want[0], (space, query)
                    seen[f"tier {tier} resolves"] += 1
                    continue
                with pytest.raises(CorpusError) as got:
                    space.index_of(query)
                if want:
                    shared = [space.labels[i] for i in want]
                    matches = ", ".join(
                        repr(space.features[i] if shared.count(space.labels[i]) > 1 else space.labels[i])
                        for i in want
                    )
                    seen["shared label"] += len(set(shared)) < len(shared)
                    assert str(got.value) == f"ambiguous feature label {query!r}: matches {matches}"
                    seen[f"tier {tier} ambiguous"] += 1
                else:
                    assert str(got.value) == f"unknown feature label {query!r}"
                    seen["unknown"] += 1
        assert len(seen) == 8 and min(seen.values()) > 0, seen


class TestValidateCorpus:
    """A corpus checks itself when built; its warnings are computed when read."""

    def test_minimal_corpus_ok_no_warnings(self):
        corpus = bits_corpus(["101"])
        assert "warnings" not in vars(corpus)
        assert corpus.warnings == ()

    def test_duplicate_label(self):
        with pytest.raises(CorpusError, match="duplicate label"):
            bits_corpus(["10", "01"], labels=["same", "same"])

    def test_constant_feature_warned_not_removed(self):
        corpus = bits_corpus(["10", "11"])
        assert len(corpus.space) == 2
        assert len(corpus.warnings) == 1
        assert corpus.warnings[0].startswith("feature 0 constant")
        assert corpus.warnings is corpus.warnings

    def test_bit_length_mismatch(self):
        space = FeatureSpace((("f0", "f0"), ("f1", "f1")))
        objects = (ObjectInstance(0, "a", (1,)),)
        with pytest.raises(CorpusError, match="expected 2 bits"):
            Corpus(space, objects)

    def test_empty_corpus(self):
        space = FeatureSpace((("f0", "f0"),))
        with pytest.raises(CorpusError, match="empty corpus"):
            Corpus(space, ())

    def test_non_binary_bit(self):
        space = FeatureSpace((("f0", "f0"),))
        objects = (ObjectInstance(0, "a", (2,)),)
        with pytest.raises(CorpusError, match="expected 0 or 1"):
            Corpus(space, objects)

    def test_bytes_row_with_a_bad_byte_is_named(self):
        space = FeatureSpace((("f0", "f0"), ("f1", "f1"), ("f2", "f2")))
        for bad in (2, 48, 255):
            good, bad_row = ObjectInstance(0, "a", b"\x01\x00\x01"), bytes((0, 1, bad))
            objects = (good, ObjectInstance(1, "b", bad_row))
            outcome = _build_outcome(space, objects)
            assert outcome == ("CorpusError", f"object 'b': bit 2 is {bad}, expected 0 or 1")
            assert outcome == _oracle_outcome(space, objects)

    def test_non_dense_ids(self):
        space = FeatureSpace((("f0", "f0"),))
        objects = (ObjectInstance(1, "a", (1,)),)
        with pytest.raises(CorpusError, match="dense"):
            Corpus(space, objects)

    def test_object_lookup_by_label(self):
        corpus = bits_corpus(["10", "01"], labels=["left", "right"])
        assert corpus.object_by_label("right").id == 1
        with pytest.raises(CorpusError, match="missing"):
            corpus.object_by_label("missing")


def broken_inputs():
    """Objects no corpus can hold, each with the message that every entry point reports for them."""
    space = FeatureSpace((("a", "a"), ("b", "b")))
    x = ObjectInstance(0, "x", (1, 0))
    yield (
        "duplicate label",
        space,
        (x, ObjectInstance(1, "y", (0, 1)), ObjectInstance(2, "x", (1, 1))),
        "duplicate label 'x' (objects 0 and 2)",
    )
    yield "short row", space, (x, ObjectInstance(1, "y", (1,))), "object 'y': expected 2 bits, got 1"
    yield "bit of 2", space, (x, ObjectInstance(1, "y", (0, 2))), "object 'y': bit 1 is 2, expected 0 or 1"
    yield (
        "non-dense id",
        space,
        (x, ObjectInstance(2, "y", (0, 1))),
        "object ids must be dense input-order integers; object 'y' has id 2, expected 1",
    )
    yield "no objects", space, (), "empty corpus"


class TestCorpusChecksItselfWhenBuilt:
    """No corpus of broken objects exists to reach ``engine.run``, retrieval or the CLI."""

    @pytest.mark.parametrize(
        "space, objects, message",
        [case[1:] for case in broken_inputs()],
        ids=[case[0] for case in broken_inputs()],
    )
    def test_broken_input_raises_when_built(self, space, objects, message):
        with pytest.raises(CorpusError) as caught:
            Corpus(space, objects)
        assert str(caught.value) == message


def _oracle_validate(space: FeatureSpace, objects) -> list[str]:
    """The per-bit check walk that the fast path replaced, kept as an oracle; returns the warnings."""
    if not objects:
        raise CorpusError("empty corpus")
    width = len(space)
    seen_labels: dict[str, int] = {}
    for pos, obj in enumerate(objects):
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
    if len(objects) >= 2:
        for f in range(width):
            column = {obj.bits[f] for obj in objects}
            if len(column) == 1:
                value = column.pop()
                warnings.append(
                    f"feature {f} constant ({space.labels[f]!r} is {value} in every object)"
                )
    return warnings


def _build_outcome(space, objects):
    """What ``Corpus(space, objects)`` raises, or its warnings."""
    try:
        corpus = Corpus(space, objects)
    except CorpusError as exc:
        return ("CorpusError", str(exc))
    return ("ok", list(corpus.warnings))


def _oracle_outcome(space, objects):
    try:
        return ("ok", _oracle_validate(space, objects))
    except CorpusError as exc:
        return ("CorpusError", str(exc))


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
            got = _build_outcome(space, tuple(objects))
            assert got == _oracle_outcome(space, tuple(objects)), objects
            outcomes.add(_outcome_kind(got))
        # every kind of error, plus clean and warned corpora, was reached
        assert outcomes == {"clean", "warned", "id", "duplicate", "short", "bit"}

    def test_constant_column_of_equal_stand_ins_names_the_first(self):
        space = FeatureSpace((("f0", "f0"), ("f1", "f1")))
        objects = (ObjectInstance(0, "a", (True, 0)), ObjectInstance(1, "b", (1, 1.0)))
        assert _build_outcome(space, objects) == _oracle_outcome(space, objects)
        assert Corpus(space, objects).warnings == ("feature 0 constant ('f0' is 1 in every object)",)

    def test_first_offender_in_input_order_is_named(self):
        space = FeatureSpace((("f0", "f0"), ("f1", "f1")))
        objects = (
            ObjectInstance(0, "a", (1, 0)),
            ObjectInstance(1, "b", (0, [1])),
            ObjectInstance(2, "c", (2, 0)),
        )
        with pytest.raises(CorpusError) as caught:
            Corpus(space, objects)
        assert str(caught.value) == "object 'b': bit 1 is [1], expected 0 or 1"


class TestObjectRowsAreStoredAsBytes:
    @pytest.mark.parametrize(
        "row",
        [(1, 0, 1), [1, 0, 1], (True, False, True), (1.0, 0.0, 1.0), bytearray((1, 0, 1))],
    )
    def test_any_row_of_zeros_and_ones_becomes_bytes(self, row):
        obj = ObjectInstance(0, "a", row)
        assert type(obj.bits) is bytes and obj.bits == bytes((1, 0, 1))

    @pytest.mark.parametrize("row", [(2, 0), (1, None), (0, [1]), "10", bytes((2, 0))])
    def test_row_with_a_bad_bit_is_kept_as_given(self, row):
        assert ObjectInstance(0, "a", row).bits is row

    def test_float_and_bool_rows_report_as_int_rows(self):
        # summed as floats, 1.0 bits would print "at least 2.0 out of" and "m": 2.0
        rows = ["1100", "1100", "1110", "0011", "0011", "0111"]
        space = FeatureSpace(tuple((f"f{f}", f"f{f}") for f in range(4)))
        params = Parameters(0.1, 0.05)

        def outputs(bit):
            objects = tuple(
                ObjectInstance(i, f"o{i}", tuple(bit(c == "1") for c in row))
                for i, row in enumerate(rows)
            )
            result = run(Corpus(space, objects), params)
            return result.report, emit_json(result)

        report, record = outputs(int)
        assert "at least 2 out of" in report and '"m": 2,' in record
        assert outputs(float) == (report, record)
        assert outputs(bool) == (report, record)


class TestOnesEqualsThePerBitCount:
    def test_sparse_dense_constant_and_duplicate_rows(self):
        rng = random.Random("ones")
        for width in (1, 2, 7, 8, 9, 64, 600):

            def row(density: float) -> str:
                return "".join("1" if rng.random() < density else "0" for _ in range(width))

            sparse, dense = row(0.05), row(0.95)
            corpus = bits_corpus([sparse, dense, "0" * width, "1" * width, sparse, row(0.5)])
            for obj in corpus.objects:
                assert obj.ones == bit_ones(obj) == len(obj.present()), obj
            assert corpus.objects[2].ones == 0 and corpus.objects[3].ones == width

    def test_parsed_and_encoded_rows(self):
        corpora = [
            parse_matrix("a,1,0,1\nb,0,1,1\nc,0,0,0\nd,1,1,1\ne,1,0,1\n"),
            one_hot_encode(parse_csv("shape,color\ncircular,black\n,white\nsquare,black\n")),
            datasets.shapes_corpus(),
            datasets.abstracts_corpus(),
            datasets.abstracts_corpus(with_title_tokens=True),
        ]
        for corpus in corpora:
            for obj in corpus.objects:
                assert obj.ones == bit_ones(obj), obj


def counter_corpora() -> Iterator[Corpus]:
    """Seeded corpora whose bitmaps cross int-digit and machine-word sizes.

    n runs past 30, 60, 64 and 128 bits. Every corpus's last feature is
    held by no object, and duplicate rows force equal counts.
    """
    rng = random.Random(1997)
    for n in (29, 30, 31, 59, 60, 61, 63, 64, 65, 130):
        width = rng.randint(4, 40)
        densities = [rng.uniform(0.05, 0.95) for _ in range(n)]
        rows = [[int(rng.random() < d) for _ in range(width)] + [0] for d in densities]
        for _ in range(rng.randint(1, n // 4)):
            rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
        yield bits_corpus(["".join(map(str, row)) for row in rows])


class TestByCountEqualsThePerBitCount:
    """The bit-sliced counter groups objects exactly as counting each one's bits does."""

    def test_random_features_and_masks(self):
        rng = random.Random(9701)
        seen: Counter[str] = Counter()
        for corpus in counter_corpora():
            n, width = len(corpus), len(corpus.space)
            bitmaps = corpus.feature_index
            assert bitmaps[-1] == 0
            every = (1 << n) - 1
            for _ in range(8):
                features = rng.sample(range(width), rng.randint(1, width))
                for among in (0, every, rng.getrandbits(n), 1 << rng.randrange(n)):
                    got = corpus.by_count(features, among)
                    assert got == by_count_scan(corpus, features, among), (corpus, features, among)
                    assert all(ids for _, ids in got)
                    seen["empty among"] += among == 0 and got == []
                    seen["count-0 group"] += bool(got) and got[-1][0] == 0
                    seen["feature held by no object"] += width - 1 in features
            assert corpus.by_count([], every) == [(0, every)]
            assert corpus.by_count([], 0) == []
            seen["n past 64"] += n > 64
        assert min(seen.values()) > 0 and len(seen) == 4, seen

    def test_counts_past_255_take_nine_planes(self):
        rng = random.Random(256)
        for n in (31, 65, 130):
            width = 300
            rows = [[int(rng.random() < 0.97) for _ in range(width)] for _ in range(n)]
            rows[0] = [1] * width
            corpus = bits_corpus(["".join(map(str, row)) for row in rows])
            every = (1 << n) - 1
            thirds = [f for f in range(width) if f % 3]
            for features in (range(width), rng.sample(range(width), 280), thirds):
                got = corpus.by_count(features, every)
                assert got == by_count_scan(corpus, features, every), (n, features)
            top = corpus.by_count(range(width), every)[0]
            assert top[0] == width and top[0].bit_length() == 9 and top[1] & 1


class TestWarningsEqualTheColumnScan:
    """Warnings read from the feature bitmaps equal those from column sums."""

    def test_one_and_two_objects(self):
        for patterns in (["1010"], ["0000"], ["1010", "1001"], ["1111", "1111"], ["0000", "0000"]):
            corpus = bits_corpus(patterns)
            assert corpus.warnings == scan_warnings(corpus), patterns
        assert bits_corpus(["1010"]).warnings == ()
        assert bits_corpus(["1010", "1001"]).warnings == (
            "feature 0 constant ('f0' is 1 in every object)",
            "feature 1 constant ('f1' is 0 in every object)",
        )

    def test_counter_corpora_and_bundled_corpora(self):
        corpora = [*counter_corpora(), datasets.shapes_corpus(), datasets.abstracts_corpus()]
        for corpus in corpora:
            assert corpus.warnings == scan_warnings(corpus)
        assert sum(bool(corpus.warnings) for corpus in corpora) >= 10


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

    @pytest.mark.parametrize(
        "m, features, message",
        [
            (1, (0, 0), r"\(0, 0\) are not distinct"),
            (1, (2, 0, 2), "not distinct and non-negative"),
            (1, (-1,), "not distinct and non-negative"),
            (0, (1, -2), "not distinct and non-negative"),
            (-1, (0,), r"m=-1 outside \[0, 1\]"),
        ],
    )
    def test_repeated_and_negative_features_rejected(self, m, features, message):
        with pytest.raises(ValueError, match=message):
            PolymorphousRule(m, features, (), (), 0.0)

    def test_m_of_zero_and_of_all_allowed(self):
        assert PolymorphousRule(0, (3,), (), (), 0.0).m == 0
        assert PolymorphousRule(2, (1, 0), (), (), 0.0).n == 2

    def test_polymorphy_flag(self):
        assert PolymorphousRule(2, (0, 1, 2), (), (), 0.0).polymorphous
        assert not PolymorphousRule(2, (0, 1), (), (), 0.0).polymorphous

    def test_satisfied_by(self):
        rule = PolymorphousRule(2, (0, 1, 2), (), (), 0.0)
        for rows in (tuple, bytes):
            corpus = with_rows(bits_corpus(["110", "100"]), rows)
            assert corpus.objects[0].count(rule.feature_set) == 2 >= rule.m
            assert corpus.objects[1].count(rule.feature_set) == 1 < rule.m


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
