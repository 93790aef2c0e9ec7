"""Parsers, one-hot encoding, bundled corpora, and JSON serialization."""

from __future__ import annotations

import json
import logging
import random

import pytest

from conftest import bits_corpus
from polyclust import datasets, emit_json, run
from polyclust.dataio import (
    ParseError,
    RefRecord,
    Table,
    _keep_informative,
    decode_table,
    one_hot_encode,
    parse_csv,
    parse_matrix,
    parse_refer,
    title_tokens,
)
from polyclust.description import report_record
from polyclust.model import Corpus, CorpusError, FeatureSpace, ObjectInstance, Parameters


EXPECTED_KEYWORD_COUNTS = {
    "abstract 1": 7,
    "abstract 2": 2,
    "abstract 3": 8,
    "abstract 4": 5,
    "abstract 5": 4,
    "abstract 6": 6,
    "abstract 7": 5,
}


class TestParseCsv:
    def test_minimal_table(self):
        table = parse_csv("shape,color\ncircular,black\n")
        assert table.attributes == ("shape", "color")
        assert table.rows == (("circular", "black"),)
        assert table.labels is None

    def test_label_column_reserved(self):
        table = parse_csv("label,shape\nx,circular\ny,square\n")
        assert table.labels == ("x", "y")
        assert table.attributes == ("shape",)

    def test_ragged_row_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_csv("a,b\n1,2\n1,2,3\n")

    def test_empty_header_cell(self):
        with pytest.raises(ParseError, match="empty attribute name"):
            parse_csv("a,,c\n1,2,3\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="no header"):
            parse_csv("\n\n")

    def test_wide_table_arity_checked_only(self):
        header = ",".join(f"a{i}" for i in range(10))
        row = ",".join(f"v{i}" for i in range(10))
        table = parse_csv(header + "\n" + "\n".join([row] * 10))
        assert len(table.attributes) == 10
        assert len(table.rows) == 10


class TestParseRefer:
    def test_bundled_corpus_has_seven_records(self):
        records = parse_refer(datasets.abstracts_text())
        assert len(records) == 7
        counts = {rec.label: len(rec.keywords) for rec in records}
        assert counts == EXPECTED_KEYWORD_COUNTS

    def test_abstract_2_keywords(self):
        records = parse_refer(datasets.abstracts_text())
        by_label = {rec.label: rec for rec in records}
        assert by_label["abstract 2"].keywords == ("PROBLEM SOLVING", "IMAGERY")

    def test_abstract_5_keywords_end_with_visual_stimulation(self):
        records = parse_refer(datasets.abstracts_text())
        by_label = {rec.label: rec for rec in records}
        keywords = by_label["abstract 5"].keywords
        assert len(keywords) == 4
        assert keywords[-1] == "VISUAL STIMULATION"

    def test_titles_retained(self):
        records = parse_refer(datasets.abstracts_text())
        by_label = {rec.label: rec for rec in records}
        assert by_label["abstract 6"].title.startswith("Visual recognition of words")

    def test_record_without_keywords_is_named(self):
        text = "% something alpha 9\n%T A title\n%# 1: KEY\n\n% other beta 3\n%T Bare\n"
        with pytest.raises(ParseError, match="beta 3"):
            parse_refer(text)

    def test_continued_keyword_equal_to_an_earlier_one_is_dropped(self):
        text = (
            "% rec one\n%# 1: VISUAL SEARCH\n%# 2: VISUAL\nSEARCH\n%# 3: MEMORY\n\n"
            "% rec two\n%# 1: MEMORY\n"
        )
        records = parse_refer(text)
        assert records[0].keywords == ("VISUAL SEARCH", "MEMORY")
        corpus = one_hot_encode(records)
        assert corpus.space.features == (("VISUAL SEARCH", "VISUAL SEARCH"),)
        assert [obj.bits for obj in corpus.objects] == [(1,), (0,)]

    def test_continued_keyword_completes_across_lines(self):
        text = "% rec\n%# 1: VISUAL SEARCH\n%# 2: VISUAL\nSEARCH\nTASK\n"
        assert parse_refer(text)[0].keywords == ("VISUAL SEARCH", "VISUAL SEARCH TASK")

    def test_continuation_after_a_repeated_keyword_extends_the_repeat(self):
        text = "% rec\n%# 1: VISUAL\n%# 2: VISUAL\nSEARCH\n"
        assert parse_refer(text)[0].keywords == ("VISUAL", "VISUAL SEARCH")

    def test_continuation_after_an_empty_keyword_extends_the_empty_one(self):
        text = "% rec\n%# 1: MEMORY\n%# 2:\nVISUAL SEARCH\n"
        assert parse_refer(text)[0].keywords == ("MEMORY", "VISUAL SEARCH")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="no records"):
            parse_refer("   \n\n  ")


class TestOneHotEncode:
    def test_binary_attribute_gives_complementary_bits(self):
        corpus = one_hot_encode(parse_csv("shape\ncircular\nsquare\n"))
        assert corpus.space.labels == ("circular", "square")
        assert corpus.objects[0].bits == (1, 0)
        assert corpus.objects[1].bits == (0, 1)

    def test_feature_order_is_first_appearance(self):
        corpus = one_hot_encode(
            parse_csv("shape,color\nsquare,black\ncircular,white\nsquare,white\n")
        )
        assert corpus.space.features == (
            ("shape", "square"),
            ("shape", "circular"),
            ("color", "black"),
            ("color", "white"),
        )

    def test_one_hot_blocks_have_at_most_one_indicator(self, shapes_corpus):
        blocks = shapes_corpus.space.attribute_blocks()
        for obj in shapes_corpus.objects:
            for indices in blocks.values():
                assert sum(obj.bits[f] for f in indices) <= 1

    def test_missing_value_encodes_all_zero(self):
        corpus = one_hot_encode(parse_csv("shape,color\ncircular,black\n,white\n"))
        blocks = corpus.space.attribute_blocks()
        row1 = corpus.objects[1]
        assert sum(row1.bits[f] for f in blocks["shape"]) == 0

    def test_universal_keyword_dropped_with_notice(self, caplog):
        text = (
            "% rec one\n%# 1: SHARED\n%# 2: ALPHA\n\n"
            "% rec two\n%# 1: SHARED\n%# 3: BETA\n"
        )
        with caplog.at_level(logging.INFO):
            corpus = one_hot_encode(parse_refer(text))
        assert [a for a, _ in corpus.space.features] == ["ALPHA", "BETA"]
        assert any("SHARED" in message for message in caplog.messages)

    def test_all_constant_features_rejected(self):
        with pytest.raises(CorpusError, match="no informative features"):
            one_hot_encode(parse_csv("shape\ncircular\n"))

    def test_visual_search_bit_set_for_abstracts_4_and_6(self, abstracts_corpus):
        idx = abstracts_corpus.space.index_of("VISUAL SEARCH")
        holders = {
            obj.label for obj in abstracts_corpus.objects if obj.bits[idx]
        }
        assert holders == {"abstract 4", "abstract 6"}

    def test_title_tokens_flag_adds_title_features(self):
        plain = datasets.abstracts_corpus()
        enriched = datasets.abstracts_corpus(with_title_tokens=True)
        assert len(enriched.space) > len(plain.space)
        assert ("title", "models") in enriched.space.features
        # IMAGERY is already a keyword of abstract 2, so its title word is excluded
        record = next(
            r for r in datasets.abstracts_records() if r.label == "abstract 2"
        )
        assert "imagery" not in title_tokens(record)

    def test_round_trip_encode_decode(self):
        rng = random.Random(77)
        attributes = ("size", "tone", "edge")
        values = {
            "size": ["small", "large", "medium"],
            "tone": ["dark", "light"],
            "edge": ["sharp", "soft", "ragged"],
        }
        for _ in range(20):
            n = rng.randint(2, 8)
            rows = []
            for _ in range(n):
                # empty string is a missing value; it must round-trip too
                rows.append(
                    tuple(
                        rng.choice(values[a]) if rng.random() > 0.15 else ""
                        for a in attributes
                    )
                )
            # force variation per attribute so nothing is constant or absent
            rows.append(tuple(values[a][0] for a in attributes))
            rows.append(tuple(values[a][1] for a in attributes))
            table = Table(attributes, tuple(rows))
            corpus = one_hot_encode(table)
            decoded = decode_table(corpus)
            assert decoded.attributes == table.attributes
            assert decoded.rows == table.rows


class TestParseMatrix:
    def test_basic(self):
        corpus = parse_matrix("a,1,0,1\nb,0,1,1\n")
        assert [obj.label for obj in corpus.objects] == ["a", "b"]
        assert corpus.objects[0].bits == (1, 0, 1)
        assert corpus.space.labels == ("f0", "f1", "f2")

    def test_bad_bit_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("a,1,0\nb,2,0\n")

    def test_ragged_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("a,1,0\nb,1\n")

    def test_empty(self):
        with pytest.raises(ParseError, match="no rows"):
            parse_matrix("")


class TestEmitJson:
    def test_empty_field_lists_all_labels(self):
        corpus = bits_corpus(["1100", "0011"], labels=["left", "right"])
        result = run(corpus, Parameters())
        record = json.loads(emit_json(result))
        assert record["categories"] == []
        assert record["unclustered"] == ["left", "right"]

    def test_round_trips_the_structured_record(self, shapes_corpus):
        result = run(shapes_corpus, Parameters(0.05, 0.05))
        assert json.loads(emit_json(result)) == report_record(result)

    def test_key_order_is_stable(self, shapes_corpus):
        result = run(shapes_corpus, Parameters(0.05, 0.05))
        record = json.loads(emit_json(result))
        assert list(record) == [
            "parameters",
            "categories",
            "distinctiveness",
            "unclustered",
            "trace",
        ]
        category = record["categories"][0]
        assert list(category) == ["members", "best_member", "rule", "cohesion_bits"]
        assert list(category["rule"]) == [
            "m",
            "features",
            "necessary",
            "sufficient",
            "false_alarm_rate",
        ]

    def test_floats_rounded_to_nine_significant_digits(self, shapes_corpus):
        result = run(shapes_corpus, Parameters(0.05, 0.05))
        record = json.loads(emit_json(result))
        cohesion = record["categories"][0]["cohesion_bits"]
        assert cohesion == float(f"{result.field.categories[0].cohesion:.9g}")
        assert cohesion == pytest.approx(0.054469444, abs=1e-9)

    def test_byte_identical_across_runs(self, abstracts_corpus):
        params = Parameters(0.005, 0.05)
        assert emit_json(run(abstracts_corpus, params)) == emit_json(
            run(abstracts_corpus, params)
        )


# The list-scan encoders that the single-pass ones replaced, kept as
# oracles: a list membership test per (object, feature) pair, so they are
# quadratic, but obviously in first-appearance order.


def _oracle_encode_table(table: Table) -> Corpus:
    n = len(table.rows)
    if n == 0:
        raise CorpusError("empty corpus: table has no rows")
    specs: list[tuple[str, str, int]] = []
    for col, attr in enumerate(table.attributes):
        seen: list[str] = []
        for row in table.rows:
            value = row[col]
            if value and value not in seen:
                seen.append(value)
        specs.extend((attr, value, col) for value in seen)
    if not specs:
        raise CorpusError("empty corpus: no attribute values observed")
    counts = [sum(1 for row in table.rows if row[col] == value) for _, value, col in specs]
    kept = _keep_informative([(a, v) for a, v, _ in specs], counts, n)
    space = FeatureSpace(tuple((specs[i][0], specs[i][1]) for i in kept))
    labels = table.labels or tuple(f"row{i + 1}" for i in range(n))
    objects = tuple(
        ObjectInstance(
            i,
            labels[i],
            tuple(1 if table.rows[i][specs[k][2]] == specs[k][1] else 0 for k in kept),
        )
        for i in range(n)
    )
    return Corpus(space, objects)


def _oracle_encode_keywords(records: tuple[RefRecord, ...], with_title_tokens: bool) -> Corpus:
    if not records:
        raise CorpusError("empty corpus: no records")
    n = len(records)
    per_record: list[list[tuple[str, str]]] = []
    for record in records:
        keys = [(keyword, keyword) for keyword in record.keywords]
        if with_title_tokens:
            keys.extend(("title", token) for token in title_tokens(record))
        per_record.append(keys)
    ordered: list[tuple[str, str]] = []
    for keys in per_record:
        for key in keys:
            if key not in ordered:
                ordered.append(key)
    counts = [sum(1 for keys in per_record if key in keys) for key in ordered]
    kept = _keep_informative(ordered, counts, n)
    space = FeatureSpace(tuple(ordered[i] for i in kept))
    objects = tuple(
        ObjectInstance(
            i, records[i].label, tuple(1 if ordered[k] in per_record[i] else 0 for k in kept)
        )
        for i in range(n)
    )
    return Corpus(space, objects)


def _outcome(encode, caplog):
    """What an encoder produced: corpus parts or error, plus its log records in order."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="polyclust.dataio"):
        try:
            corpus = encode()
            made = (
                corpus.space.features,
                tuple((obj.id, obj.label, obj.bits) for obj in corpus.objects),
            )
        except CorpusError as exc:
            made = ("CorpusError", str(exc))
    logged = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    return made, logged


_WORDS = ("visual", "search", "memory", "imagery", "recall", "models", "of", "a", "word")


def _random_records(rng: random.Random) -> tuple[RefRecord, ...]:
    vocabulary = [f"KEY {i}" for i in range(rng.randint(1, 12))] + ["VISUAL SEARCH", "MEMORY"]
    universal = rng.random() < 0.5
    records = []
    for i in range(rng.randint(1, 14)):
        # drawn with replacement, so a record can name a keyword twice
        keywords = [rng.choice(vocabulary) for _ in range(rng.randint(1, 6))]
        if universal:
            keywords.insert(rng.randint(0, len(keywords)), "EVERYWHERE")
        title = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(0, 6)))
        records.append(RefRecord(f"record {i}", title, tuple(keywords)))
    return tuple(records)


def _random_table(rng: random.Random) -> Table:
    width = rng.randint(1, 5)
    attributes = [f"attr{a}" for a in range(width)]
    pools = [
        [f"v{v}" for v in range(rng.randint(1, 4))] for _ in attributes
    ]  # a one-value pool with no blanks gives a constant attribute
    blank = [rng.choice((0.0, 0.0, 0.2, 1.0)) for _ in attributes]
    lines = [",".join(["label", *attributes])]
    for i in range(rng.randint(1, 12)):
        cells = [
            "" if rng.random() < blank[a] else rng.choice(pools[a]) for a in range(width)
        ]
        lines.append(",".join([f"obj{i}", *cells]))
    return parse_csv("\n".join(lines) + "\n")


class TestEncodersAgreeWithListScanOracle:
    @pytest.mark.parametrize("with_title_tokens", [False, True])
    def test_random_refer_records(self, caplog, with_title_tokens):
        rng = random.Random(f"refer-differential:{with_title_tokens}")
        outcomes = set()
        for _ in range(300):
            records = _random_records(rng)
            got = _outcome(
                lambda: one_hot_encode(records, with_title_tokens=with_title_tokens), caplog
            )
            want = _outcome(lambda: _oracle_encode_keywords(records, with_title_tokens), caplog)
            assert got == want, records
            outcomes.add((got[0][0] == "CorpusError", bool(got[1])))
        # the suite reached errors, clean encodings and encodings with drop notices
        assert outcomes >= {(True, True), (False, False), (False, True)}

    def test_random_csv_tables(self, caplog):
        rng = random.Random("csv-differential")
        outcomes = set()
        for _ in range(300):
            table = _random_table(rng)
            got = _outcome(lambda: one_hot_encode(table), caplog)
            want = _outcome(lambda: _oracle_encode_table(table), caplog)
            assert got == want, table
            outcomes.add(got[0][0] if isinstance(got[0][0], str) else "ok")
            if got[0][0] != "CorpusError":
                outcomes.add("notice" if got[1] else "clean")
        assert outcomes >= {"CorpusError", "ok", "notice", "clean"}

    def test_parsed_refer_text_and_bundled_corpora(self, caplog):
        for records in (datasets.abstracts_records(), parse_refer(datasets.abstracts_text())):
            for with_title_tokens in (False, True):
                got = _outcome(
                    lambda: one_hot_encode(records, with_title_tokens=with_title_tokens), caplog
                )
                want = _outcome(
                    lambda: _oracle_encode_keywords(records, with_title_tokens), caplog
                )
                assert got == want
        table = datasets.shapes_table()
        assert _outcome(lambda: one_hot_encode(table), caplog) == _outcome(
            lambda: _oracle_encode_table(table), caplog
        )
