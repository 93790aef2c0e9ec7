"""Input parsing, one-hot encoding, and report serialization.

Three input shapes are supported: CSV attribute tables (header row of
attribute names, optional reserved leading "label" column, empty cell
means missing), refer-style bibliographic records (blank-line separated;
`parse_refer` gives their line grammar), and raw binary matrices
("label,b1,b2,..." rows). Each parser drops one leading byte-order
mark. CSV and refer input pass through one-hot encoding, which keys each
cell once: a table cell by its (attribute, value) pair, a keyword by its
string, a title token by ("title", token). Matrix input maps directly
onto a corpus.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import re
from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence, Union

from . import description
from .model import Corpus, CorpusError, FeatureSpace, ObjectInstance

if TYPE_CHECKING:
    from .engine import RunResult

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed input text."""


@dataclass(frozen=True)
class Table:
    """A parsed multi-valued attribute table; empty string means missing.

    Each attribute is named once, since (attribute, value) names a feature.
    Each row has one cell per attribute, and labels, if given, one per row.
    """

    attributes: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        twice = [name for name, count in Counter(self.attributes).items() if count > 1]
        if twice:
            raise ParseError(f"attribute {twice[0]!r} is named more than once in the header")
        width = len(self.attributes)
        for k, row in enumerate(self.rows, 1):
            if len(row) != width:
                raise ParseError(f"row {k} has {len(row)} cells for {width} attributes")
        if self.labels is not None and len(self.labels) != len(self.rows):
            raise ParseError(f"{len(self.labels)} labels for {len(self.rows)} rows")


@dataclass(frozen=True)
class RefRecord:
    """One bibliographic record: display label, title, ordered keywords."""

    label: str
    title: str
    keywords: tuple[str, ...]


def _csv_rows(text: str) -> list[tuple[int, list[str]]]:
    """The non-blank CSV rows as (line number, stripped cells), after any byte-order mark."""
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    return [
        (reader.line_num, cells)
        for row in reader
        if any(cells := [cell.strip() for cell in row])
    ]


def parse_csv(text: str) -> Table:
    """Parse a CSV attribute table.

    The first row names the attributes. A first column named "label"
    (case-insensitive) supplies object labels. Ragged rows and empty
    header cells are reported with their line numbers.
    """
    raw = _csv_rows(text)
    if not raw:
        raise ParseError("empty input: no header row")
    header_line, header = raw[0]
    if any(not name for name in header):
        raise ParseError(f"line {header_line}: empty attribute name in header")
    has_labels = header[0].lower() == "label"
    attributes = tuple(header[1:] if has_labels else header)
    if not attributes:
        raise ParseError(f"line {header_line}: header defines no attributes")
    arity = len(header)
    rows: list[tuple[str, ...]] = []
    labels: list[str] = []
    for line_num, cells in raw[1:]:
        if len(cells) != arity:
            raise ParseError(f"line {line_num}: expected {arity} fields, got {len(cells)}")
        if has_labels:
            labels.append(cells[0])
            rows.append(tuple(cells[1:]))
        else:
            rows.append(tuple(cells))
    return Table(attributes, tuple(rows), tuple(labels) if has_labels else None)


_LABEL_AT_END = re.compile(r"abstract\s+\d+\s*$")
_LABEL = re.compile(r"abstract\s+\d+")


def parse_refer(text: str) -> tuple[RefRecord, ...]:
    """Parse refer-style records separated by blank lines.

    Each stripped, non-blank line of a record is read once, by its first
    two characters. A "%" line starts a part:
    - "%#" a keyword: the text after the first colon, or all of it when
      there is none;
    - "%T" a title part, while "%" then any other ASCII letter, then the
      end of the line or whitespace, is a field code that starts none;
    - any other "%" line a comment part.
    A line without "%" extends the last part, whatever its kind; it is
    dropped after a field code that starts none or before any part.
    The title and the comment are their non-empty parts joined by a
    space. The label is the comment's "abstract N" phrase (the one
    ending the comment, else the first), else the comment, the title or
    "record N". Empty and repeated keywords go only after their
    continuation lines are joined; a record left with no keyword is an
    error naming it. Each distinct keyword is held as one `str` object
    across all records, which their encoded feature space then shares.
    """
    text = text.removeprefix("\ufeff")
    blocks = [b for b in re.split(r"\n\s*\n", text.strip()) if b.strip()]
    if not blocks:
        raise ParseError("empty input: no records")
    records: list[RefRecord] = []
    shared: dict[str, str] = {}  # each distinct keyword's one str object
    for position, block in enumerate(blocks, 1):
        keywords: list[str] = []
        titles: list[str] = []
        comments: list[str] = []
        last = [""]  # a continuation extends last[-1]; a list no field owns is never read
        for raw_line in block.splitlines():
            line = raw_line.strip()
            if not line:
                continue
            if line[0] != "%":
                last[-1] = f"{last[-1]} {line}".strip()
                continue
            code = line[1:2]
            if code == "#":
                colon = line.find(":", 2)
                last, part = keywords, line[colon + 1 if colon >= 0 else 2 :]
            elif code.isascii() and code.isalpha() and (len(line) == 2 or line[2].isspace()):
                last, part = (titles if code == "T" else []), line[2:]
            else:
                last, part = comments, line[1:]
            last.append(part.strip())
        title = " ".join(filter(None, titles))
        comment = " ".join(filter(None, comments))
        found = "abstract" in comment and (_LABEL_AT_END.search(comment) or _LABEL.search(comment))
        default = comment or title or f"record {position}"
        label = " ".join(found.group(0).split()) if found else default
        unique = dict.fromkeys(keywords)  # each keyword at its first place
        unique.pop("", None)
        if not unique:
            raise ParseError(f"record {label!r} has no keyword lines (%#)")
        records.append(RefRecord(label, title, tuple(map(shared.setdefault, unique, unique))))
    return tuple(records)


def title_tokens(record: RefRecord) -> tuple[str, ...]:
    """Lower-cased title words not already covered by the record's keywords."""
    covered = {
        word for keyword in record.keywords for word in re.findall(r"[a-z]+", keyword.lower())
    }
    out: list[str] = []
    for token in re.findall(r"[a-z]+", record.title.lower()):
        if len(token) >= 2 and token not in covered and token not in out:
            out.append(token)
    return tuple(out)


def one_hot_encode(
    source: Union[Table, Sequence[RefRecord]], *, with_title_tokens: bool = False
) -> Corpus:
    """Expand a parsed table or refer records into a binary corpus.

    Each cell is keyed once: a table cell by its (attribute, value) pair,
    a keyword by its string, a title token by ("title", token). A tuple
    key is its own feature; a string key k is the feature (k, k).
    Features appear in first-appearance order (attribute by attribute
    for tables; record by record for keywords). Only values and keywords
    that some object holds become features; those that every object
    holds carry zero transmission and are dropped with a logged notice.
    Encoding is one pass over the cells through dict indexes, so its
    time is linear in the corpus size. A refer object's keys are read
    in place from its record's keywords (plus its title keys, when
    asked), and the features reuse those str objects; repeats go only
    where keys are counted, so a keyword named twice in one record
    counts once and sets its bit twice. Each object's row is `bytes`,
    one byte (0 or 1) per feature. The corpus checks its own invariants
    when built (`Corpus`).
    """
    if isinstance(source, Table):
        if with_title_tokens:
            raise ValueError("with_title_tokens applies to refer records only")
        if not source.rows:
            raise CorpusError("empty corpus: table has no rows")
        names = source.attributes
        per_object = [
            [(names[col], value) for col, value in enumerate(row) if value] for row in source.rows
        ]
        counts = Counter(chain.from_iterable(per_object))  # first-appearance order
        if not counts:
            raise CorpusError("empty corpus: no attribute values observed")
        # attribute by attribute; the stable sort keeps each one's values in first-appearance order
        position = {name: col for col, name in enumerate(names)}
        ordered = sorted(counts, key=lambda key: position[key[0]])
        labels = source.labels or tuple(f"row{i + 1}" for i in range(len(source.rows)))
    else:
        records = tuple(source)
        if not records:
            raise CorpusError("empty corpus: no records")
        per_object = [record.keywords for record in records]
        if with_title_tokens:
            # the token "title" names the feature of the keyword "title", so shares its key
            per_object = [
                (*keys, *(t if t == "title" else ("title", t) for t in title_tokens(record)))
                for keys, record in zip(per_object, records)
            ]
        # first-appearance order; a key named twice in one object counts once
        counts = Counter(chain.from_iterable(map(dict.fromkeys, per_object)))
        ordered = list(counts)
        labels = [record.label for record in records]
    n = len(per_object)
    column: dict[Hashable, int] = {}
    features: list[tuple[str, str]] = []
    for key in ordered:
        feature = key if isinstance(key, tuple) else (key, key)
        if counts[key] < n:
            column[key] = len(features)
            features.append(feature)
        else:
            logger.info("dropping feature %r: present in all of %d objects", feature, n)
    if not features:
        raise CorpusError("no informative features: every feature is constant")
    space = FeatureSpace(tuple(features))
    zero = bytes(len(features))
    objects: list[ObjectInstance] = []
    for i, keys in enumerate(per_object):
        bits = bytearray(zero)
        for j in map(column.get, keys):
            if j is not None:
                bits[j] = 1
        objects.append(ObjectInstance(i, labels[i], bytes(bits)))
    return Corpus(space, tuple(objects))


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def parse_matrix(text: str) -> Corpus:
    """Parse "label,b1,b2,..." rows straight into a corpus.

    Features are auto-named f0..f{F-1}; nothing is dropped here, so
    acceptance of a matrix corpus never depends on encoding choices.
    Each row is stored as `bytes`, one byte (0 or 1) per feature, and is
    checked whole, in C: its cells are each one "0" or "1" exactly when
    none is empty and their text is one 0 or 1 per cell. Only a row that
    fails is walked cell by cell, to name its first bad cell.
    """
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
        bit_cells = cells[1:]
        row = "".join(bit_cells)
        if len(row) != arity - 1 or "" in bit_cells or row.strip("01"):
            for pos, cell in enumerate(bit_cells):
                if cell not in ("0", "1"):
                    raise ParseError(f"line {line_num}: bit {pos} is {cell!r}, expected 0 or 1")
        objects.append(ObjectInstance(obj_id, cells[0], row.encode().translate(_BIT_BYTES)))
    space = FeatureSpace(tuple((f"f{i}", f"f{i}") for i in range(arity - 1)))
    return Corpus(space, tuple(objects))


def emit_json(result: "RunResult") -> str:
    """Serialize a run's structured record as stable, key-ordered JSON."""
    return json.dumps(description.report_record(result), indent=2) + "\n"
