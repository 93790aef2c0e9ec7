"""Parsers, one-hot encoding, bundled corpora, and JSON serialization."""

from __future__ import annotations

import json
import logging
import random
import tracemalloc
from collections import Counter

import pytest

from conftest import bits_corpus, oracle_parse_refer
from polyclust import datasets, emit_json, run
from polyclust.dataio import (
    ParseError,
    RefRecord,
    Table,
    _csv_rows,
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

    def test_header_of_only_a_label_column_defines_no_attributes(self):
        with pytest.raises(ParseError) as excinfo:
            parse_csv("label\nx\n")
        assert str(excinfo.value) == "line 1: header defines no attributes"

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: parse_csv("a,a\nx,y\nz,w\n"), id="distinct-cells"),
            pytest.param(lambda: parse_csv("a,a\nx,y\ny,x\n"), id="shared-cells"),
            pytest.param(lambda: parse_csv("label,a,b,a\nr,x,y,z\n"), id="labelled"),
            pytest.param(lambda: Table(("a", "a"), (("x", "y"),)), id="hand-built"),
        ],
    )
    def test_attribute_named_twice_is_rejected(self, make):
        # (attribute, value) names a feature, so the table refuses a repeated attribute
        with pytest.raises(ParseError, match="attribute 'a' is named more than once"):
            make()

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
        assert [obj.bits for obj in corpus.objects] == [bytes((1,)), bytes((0,))]

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


# Pieces of refer text for the differential parser test: each kind of line
# that the grammar tells apart, with the near misses of each, and the blanks
# and line breaks that str.strip and str.splitlines treat specially.
_KEYWORD_LINES = (
    "%# 1: VISUAL SEARCH", "%# 2: MEMORY", "%#3:MEMORY", "%# 4:", "%#", "%#:",
    "%# NO COLON", "%# 5: a:b", "%#6:\tIMAGERY\u00a0",
)
_FIELD_LINES = (
    "%T Visual search", "%T", "%T\tMemory  models", "%T\x1fword", "%T\u3000word", "%A Author",
    "%Q", "%Tx not a title", "%é x", "%é", "%1 y", "%", "%#T", "%%T x", "%T:x",
)
_COMMENT_LINES = (
    "% abstract 3", "% abstract 12  ", "% see abstract 4 and abstract 5 here", "%abstract\t7",
    "% note", "% abstract x", "%abstract 1 abstract 2", "% abstract\u20036\u00a0",
)
_CONTINUATIONS = ("SEARCH", "more words", "abstract 9", "x", "T x")
_BLANKS = ("", " ", "\t", "\x0c", "\x1c", "\x85", "\u00a0", "\u3000")
_BREAKS = ("\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028", "\x0b")
_LINE_KINDS = (_KEYWORD_LINES, _FIELD_LINES, _COMMENT_LINES, _CONTINUATIONS, _BLANKS)


def _random_refer_text(rng: random.Random) -> str:
    records = []
    for _ in range(rng.randint(1, 3)):
        lines = []
        for _ in range(rng.randint(0, 7)):
            line = rng.choice(rng.choice(_LINE_KINDS))
            if rng.random() < 0.2:
                line = rng.choice(_BLANKS) + line + rng.choice(_BLANKS)
            lines.append(line + rng.choice(_BREAKS))
        records.append("".join(lines))
    return rng.choice(("\n\n", "\n \n", "\r\n\r\n", "\n\x0c\n", "\n")).join(records)


def _parsed(parse, text: str):
    """What a parser made of the text: its records or corpus, or its ParseError message."""
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc))


def test_parse_refer_agrees_with_regex_oracle_on_random_text():
    """Equal records, or an equal ParseError message, on 20k random refer texts."""
    rng = random.Random("refer-parser-differential")
    seen: set[str] = set()
    for _ in range(20_000):
        text = _random_refer_text(rng)
        got = _parsed(parse_refer, text)
        assert got == _parsed(oracle_parse_refer, text), text
        if got[0] == "ParseError":
            seen.add("no keyword" if "no keyword" in got[1] else "empty")
        else:
            seen.add("records")
            seen.update("abstract" for r in got if r.label.startswith("abstract"))
            seen.update("title" for r in got if r.title)
    assert seen == {"no keyword", "empty", "records", "abstract", "title"}


class TestOneHotEncode:
    def test_binary_attribute_gives_complementary_bits(self):
        corpus = one_hot_encode(parse_csv("shape\ncircular\nsquare\n"))
        assert corpus.space.labels == ("circular", "square")
        assert corpus.objects[0].bits == bytes((1, 0))
        assert corpus.objects[1].bits == bytes((0, 1))

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
        features = shapes_corpus.space.features
        for obj in shapes_corpus.objects:
            held = Counter(attr for (attr, _), bit in zip(features, obj.bits) if bit)
            assert all(k <= 1 for k in held.values())

    def test_missing_value_encodes_all_zero(self):
        corpus = one_hot_encode(parse_csv("shape,color\ncircular,black\n,white\n"))
        shape = [f for f, (attr, _) in enumerate(corpus.space.features) if attr == "shape"]
        assert corpus.objects[1].count(shape) == 0

    def test_universal_keyword_dropped_with_notice(self, caplog):
        text = (
            "% rec one\n%# 1: SHARED\n%# 2: ALPHA\n\n"
            "% rec two\n%# 1: SHARED\n%# 3: BETA\n"
        )
        with caplog.at_level(logging.INFO):
            corpus = one_hot_encode(parse_refer(text))
        assert [a for a, _ in corpus.space.features] == ["ALPHA", "BETA"]
        assert any("SHARED" in message for message in caplog.messages)

    @pytest.mark.parametrize(
        "source, with_title_tokens, error, message",
        [
            pytest.param(Table(("a",), (("x",),)), True, ValueError,
                         "with_title_tokens applies to refer records only", id="title-tokens-of-a-table"),
            pytest.param(Table(("a",), ()), False, CorpusError,
                         "empty corpus: table has no rows", id="table-without-rows"),
            pytest.param((), False, CorpusError, "empty corpus: no records", id="no-records"),
        ],
    )
    def test_input_it_cannot_encode_is_rejected(self, source, with_title_tokens, error, message):
        with pytest.raises(error) as excinfo:
            one_hot_encode(source, with_title_tokens=with_title_tokens)
        assert str(excinfo.value) == message

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

    def test_row_longer_than_its_header_raises(self):
        # a hand-built row's extra cell has no attribute to name its feature; it is not cut
        with pytest.raises(ParseError, match="row 1 has 2 cells for 1 attributes"):
            one_hot_encode(Table(("shape",), (("round", "black"), ("square", "white"))))

    @pytest.mark.parametrize(
        "rows, labels, message",
        [
            pytest.param((("x",), ("y", "z")), None, "row 1 has 1 cells for 2", id="short-row"),
            pytest.param((("x", "w"), ("y", "z")), ("r1",), "1 labels for 2 rows", id="few-labels"),
            pytest.param((("x", "w"),), ("r1", "r2"), "2 labels for 1 rows", id="extra-labels"),
        ],
    )
    def test_hand_built_table_must_match_its_header(self, rows, labels, message):
        # a short row is not read as missing values, and no label is dropped or lacking
        with pytest.raises(ParseError, match=message):
            Table(("a", "b"), rows, labels)

    def test_title_word_title_is_the_feature_of_the_keyword_title(self, caplog):
        records = (
            RefRecord("A", "", ("title",)),
            RefRecord("B", "the title", ("x",)),
            RefRecord("C", "", ("x",)),
        )
        got = _outcome(lambda: one_hot_encode(records, with_title_tokens=True), caplog)
        assert got == _outcome(lambda: _oracle_encode_keywords(records, True), caplog)
        assert got[0][0] == (("title", "title"), ("x", "x"), ("title", "the"))

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
            features = corpus.space.features
            assert list(dict.fromkeys(a for a, _ in features)) == list(attributes)
            decoded = []
            for obj in corpus.objects:
                cells = []
                for attr in attributes:
                    hits = [
                        value
                        for f, (a, value) in enumerate(features)
                        if a == attr and obj.bits[f]
                    ]
                    assert len(hits) <= 1
                    cells.append(hits[0] if hits else "")
                decoded.append(tuple(cells))
            assert tuple(decoded) == table.rows


class TestParseMatrix:
    def test_basic(self):
        corpus = parse_matrix("a,1,0,1\nb,0,1,1\n")
        assert [obj.label for obj in corpus.objects] == ["a", "b"]
        assert corpus.objects[0].bits == bytes((1, 0, 1))
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

    def test_row_of_only_a_label_is_rejected(self):
        with pytest.raises(ParseError) as excinfo:
            parse_matrix("a\nb\n")
        assert str(excinfo.value) == "line 1: a matrix row needs a label and at least one bit"


def _oracle_parse_matrix(text: str) -> Corpus:
    """The matrix parser that checked and converted each bit cell in Python."""
    raw = _csv_rows(text)
    if not raw:
        raise ParseError("empty input: no rows")
    arity = len(raw[0][1])
    if arity < 2:
        raise ParseError(f"line {raw[0][0]}: a matrix row needs a label and at least one bit")
    objects: list[ObjectInstance] = []
    for obj_id, (line_num, cells) in enumerate(raw):
        if len(cells) != arity:
            raise ParseError(f"line {line_num}: expected {arity} fields, got {len(cells)}")
        bits = bytearray()
        for pos, cell in enumerate(cells[1:]):
            if cell not in ("0", "1"):
                raise ParseError(f"line {line_num}: bit {pos} is {cell!r}, expected 0 or 1")
            bits.append(int(cell))
        objects.append(ObjectInstance(obj_id, cells[0], bytes(bits)))
    space = FeatureSpace(tuple((f"f{i}", f"f{i}") for i in range(arity - 1)))
    return Corpus(space, tuple(objects))


class TestParseMatrixAgreesWithCellLoopOracle:
    # cells that are not one "0" or "1"; "１" is a full-width digit
    BAD_CELLS = ("2", "", "01", "1.0", "１", '"0,1"', "0 1", "\u00a0", "10", "00")

    @pytest.mark.parametrize("bad", BAD_CELLS)
    def test_bad_cell_is_named_as_before(self, bad):
        for row in (f"b,{bad},1,0", f"b,1,{bad},0", f"b,0,1,{bad}", f"b,{bad},,01"):
            text = f"a,1,0,1\n{row}\n"
            got = _parsed(parse_matrix, text)
            assert got == _parsed(_oracle_parse_matrix, text)
            assert not isinstance(got, Corpus), text

    @pytest.mark.parametrize("row", ["b,,01,1", "b,01,,1", "b,1,10,"])
    def test_empty_and_two_character_cells_that_keep_the_row_length(self, row):
        text = f"a,1,0,1\n{row}\n"
        got = _parsed(parse_matrix, text)
        assert got == _parsed(_oracle_parse_matrix, text)
        assert not isinstance(got, Corpus)

    def test_random_matrices(self):
        rng = random.Random("matrix-differential")
        cells = ("0", "1") * 12 + self.BAD_CELLS
        outcomes = set()
        for _ in range(3000):
            width = rng.randint(1, 5)
            lines = [
                ",".join([f"r{i}", *rng.choices(cells, k=rng.randint(width, width + 1))])
                for i in range(rng.randint(1, 4))
            ]
            text = "\n".join(lines) + "\n"
            got = _parsed(parse_matrix, text)
            assert got == _parsed(_oracle_parse_matrix, text), text
            outcomes.add("ok" if isinstance(got, Corpus) else got[0])
        assert outcomes == {"ParseError", "ok"}


class TestByteOrderMark:
    """Each parser reads text that opens with U+FEFF exactly as the same text without it."""

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_csv, "label,shape\nx,round\ny,square\n"),
            (parse_csv, datasets.shapes_text()),
            (parse_csv, "a,a\nx,y\n"),
            (parse_matrix, "a,1,0\nb,0,1\n"),
            (parse_matrix, "\na,1\nb,0\n"),
            (parse_refer, "% abstract 1\n%# 1: SHARED\n%# 2: ALPHA\n"),
            (parse_refer, datasets.abstracts_text()),
            (parse_refer, "%T no keywords\n"),
        ],
        ids=[
            "csv-labels", "csv-shapes", "csv-error", "matrix", "matrix-blank-first-line",
            "refer", "refer-abstracts", "refer-error",
        ],
    )
    def test_parsed_as_without_the_mark(self, parse, text):
        assert _parsed(parse, "\ufeff" + text) == _parsed(parse, text)

    def test_only_one_leading_mark_is_dropped(self):
        table = parse_csv("\ufeff\ufeffshape\nround\n")
        assert table.attributes == ("\ufeffshape",)


class TestParsersStoreBytesRows:
    """Every parser path stores each object's row as bytes, one 0/1 byte per feature."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: parse_matrix("a,1,0,1\nb,0,1,1\n"), id="matrix"),
            pytest.param(
                lambda: one_hot_encode(parse_csv("shape,color\nsquare,black\ncircular,\n")),
                id="csv",
            ),
            pytest.param(
                lambda: one_hot_encode(parse_refer(datasets.abstracts_text())), id="refer"
            ),
            pytest.param(
                lambda: one_hot_encode(
                    parse_refer(datasets.abstracts_text()), with_title_tokens=True
                ),
                id="refer-title-tokens",
            ),
            pytest.param(datasets.abstracts_corpus, id="bundled-abstracts"),
            pytest.param(datasets.shapes_corpus, id="bundled-shapes"),
        ],
    )
    def test_rows_are_bytes(self, make):
        corpus = make()
        for obj in corpus.objects:
            assert type(obj.bits) is bytes
            assert len(obj.bits) == len(corpus.space)
            assert set(obj.bits) <= {0, 1}


def test_encoded_rows_retain_under_two_bytes_per_cell():
    """A 1000-record keyword corpus (800 features) keeps about one byte per cell.

    Rows stored as tuples of ints retain more than 8 bytes per cell, one
    pointer each; bytes rows retain one byte plus each object's overhead.
    """
    rng = random.Random("memory-guard")
    vocabulary = [f"KEYWORD {i}" for i in range(800)]
    records = tuple(
        RefRecord(f"record {i}", "", tuple(rng.sample(vocabulary, 8))) for i in range(1000)
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = one_hot_encode(records)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    cells = len(corpus) * len(corpus.space)
    assert len(corpus) == 1000 and len(corpus.space) == 800
    assert retained / cells < 2.0, f"{retained / cells:.2f} bytes per object-feature cell"


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


def _oracle_keep_informative(features: list[tuple[str, str]], counts: list[int], n: int):
    """The indices of the features held by some but not all n objects; the rest are logged."""
    kept: list[int] = []
    for idx, (feature, count) in enumerate(zip(features, counts)):
        if 0 < count < n:
            kept.append(idx)
        else:
            reason = "all" if count == n else "none"
            logging.getLogger("polyclust.dataio").info(
                "dropping feature %r: present in %s of %d objects", feature, reason, n
            )
    if not kept:
        raise CorpusError("no informative features: every feature is constant")
    return kept


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
    kept = _oracle_keep_informative([(a, v) for a, v, _ in specs], counts, n)
    space = FeatureSpace(tuple((specs[i][0], specs[i][1]) for i in kept))
    labels = table.labels or tuple(f"row{i + 1}" for i in range(n))
    objects = tuple(
        ObjectInstance(
            i,
            labels[i],
            bytes(1 if table.rows[i][specs[k][2]] == specs[k][1] else 0 for k in kept),
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
    kept = _oracle_keep_informative(ordered, counts, n)
    space = FeatureSpace(tuple(ordered[i] for i in kept))
    objects = tuple(
        ObjectInstance(
            i, records[i].label, bytes(1 if ordered[k] in per_record[i] else 0 for k in kept)
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
            labelled = _random_table(rng)
            # each table also without its label column: objects are named row1..
            for table in (labelled, Table(labelled.attributes, labelled.rows)):
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
