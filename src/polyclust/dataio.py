"""Input parsing, one-hot encoding, and report serialization.

Three input shapes are supported: CSV attribute tables (header row of
attribute names, optional reserved leading "label" column, empty cell
means missing), refer-style bibliographic records (blank-line separated,
keywords on "%# code: KEYWORD" lines), and raw binary matrices
("label,b1,b2,..." rows). CSV and refer input pass through one-hot
encoding; matrix input maps directly onto a corpus.
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
    """A parsed multi-valued attribute table; empty string means missing."""

    attributes: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    labels: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class RefRecord:
    """One bibliographic record: display label, title, ordered keywords."""

    label: str
    title: str
    keywords: tuple[str, ...]


def parse_csv(text: str) -> Table:
    """Parse a CSV attribute table.

    The first row names the attributes. A first column named "label"
    (case-insensitive) supplies object labels. Ragged rows and empty
    header cells are reported with their line numbers.
    """
    reader = csv.reader(io.StringIO(text))
    raw: list[tuple[int, list[str]]] = []
    for row in reader:
        if not row or not any(cell.strip() for cell in row):
            continue
        raw.append((reader.line_num, [cell.strip() for cell in row]))
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


_FIELD_LINE = re.compile(r"^%([A-Za-z])(\s+(.*))?$")


def parse_refer(text: str) -> tuple[RefRecord, ...]:
    """Parse refer-style records separated by blank lines.

    Keywords come from "%#" lines, taking the text after the first
    colon. The label is drawn from the leading comment line (an
    "abstract N" phrase when one is present), falling back to the title.
    A record without any keyword line is an error naming the record.
    """
    blocks = [b for b in re.split(r"\n\s*\n", text.strip()) if b.strip()]
    if not blocks:
        raise ParseError("empty input: no records")
    records: list[RefRecord] = []
    for position, block in enumerate(blocks, 1):
        comment = ""
        title = ""
        keywords: list[str] = []
        last: Optional[str] = None
        for raw_line in block.splitlines():
            line = raw_line.strip()
            if not line:
                continue
            if line.startswith("%#"):
                body = line[2:].strip()
                keywords.append(body.split(":", 1)[1].strip() if ":" in body else body)
                last = "keyword"
                continue
            field = _FIELD_LINE.match(line)
            if field:
                code, value = field.group(1), (field.group(3) or "").strip()
                if code == "T":
                    title = f"{title} {value}".strip()
                    last = "title"
                else:
                    last = None
                continue
            if line.startswith("%"):
                body = line[1:].strip()
                comment = f"{comment} {body}".strip() if comment else body
                last = "comment"
                continue
            if last == "title":
                title = f"{title} {line}".strip()
            elif last == "keyword":
                keywords[-1] = f"{keywords[-1]} {line}".strip()
            elif last == "comment":
                comment = f"{comment} {line}".strip()
        found = re.search(r"abstract\s+\d+\s*$", comment) or re.search(
            r"abstract\s+\d+", comment
        )
        if found:
            label = re.sub(r"\s+", " ", found.group(0)).strip()
        elif comment:
            label = comment
        elif title:
            label = title
        else:
            label = f"record {position}"
        # every %# line holds its place for its continuation lines; empty and
        # repeated keywords go only now, each keyword kept at its first place
        unique = tuple(dict.fromkeys(k for k in keywords if k))
        if not unique:
            raise ParseError(f"record {label!r} has no keyword lines (%#)")
        records.append(RefRecord(label, title, unique))
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

    Features appear in first-appearance order (attribute by attribute
    for tables; record by record for keywords). Features present in all
    objects or in none carry zero transmission and are dropped with a
    logged notice. A keyword named twice in one record counts once.
    Encoding is one pass over the cells through dict indexes, so its
    time is linear in the corpus size. The corpus is not validated here;
    `validate_corpus` does that.
    """
    if isinstance(source, Table):
        if with_title_tokens:
            raise ValueError("with_title_tokens applies to refer records only")
        return _encode_table(source)
    return _encode_keywords(tuple(source), with_title_tokens=with_title_tokens)


def _keep_informative(
    features: Sequence[tuple[str, str]], counts: Sequence[int], n: int
) -> list[int]:
    kept: list[int] = []
    for idx, (feature, count) in enumerate(zip(features, counts)):
        if 0 < count < n:
            kept.append(idx)
        else:
            reason = "all" if count == n else "none"
            logger.info(
                "dropping feature %r: present in %s of %d objects", feature, reason, n
            )
    if not kept:
        raise CorpusError("no informative features: every feature is constant")
    return kept


def _encode_table(table: Table) -> Corpus:
    n = len(table.rows)
    if n == 0:
        raise CorpusError("empty corpus: table has no rows")
    per_row = [
        tuple((col, value) for col, value in enumerate(row) if value) for row in table.rows
    ]
    counts = Counter(chain.from_iterable(per_row))  # first-appearance order
    if not counts:
        raise CorpusError("empty corpus: no attribute values observed")
    # attribute by attribute; the stable sort keeps each one's values in first-appearance order
    ordered = sorted(counts, key=lambda key: key[0])
    features = [(table.attributes[col], value) for col, value in ordered]
    labels = table.labels or tuple(f"row{i + 1}" for i in range(n))
    return _assemble(per_row, ordered, features, [counts[key] for key in ordered], labels)


def _encode_keywords(
    records: tuple[RefRecord, ...], *, with_title_tokens: bool
) -> Corpus:
    if not records:
        raise CorpusError("empty corpus: no records")
    per_record: list[tuple[tuple[str, str], ...]] = []
    for record in records:
        keys = [(keyword, keyword) for keyword in record.keywords]
        if with_title_tokens:
            keys.extend(("title", token) for token in title_tokens(record))
        per_record.append(tuple(dict.fromkeys(keys)))
    counts = Counter(chain.from_iterable(per_record))  # first-appearance order
    ordered = list(counts)
    labels = [record.label for record in records]
    return _assemble(per_record, ordered, ordered, list(counts.values()), labels)


def _assemble(
    per_object: Sequence[tuple[Hashable, ...]],
    ordered: Sequence[Hashable],
    features: Sequence[tuple[str, str]],
    counts: Sequence[int],
    labels: Sequence[str],
) -> Corpus:
    """Keep the informative features and set each object's bits from its own keys.

    ordered[i] is the key of features[i], held by counts[i] objects; no
    object holds a key twice.
    """
    kept = _keep_informative(features, counts, len(per_object))
    space = FeatureSpace(tuple(features[i] for i in kept))
    column = {ordered[k]: j for j, k in enumerate(kept)}
    width = len(kept)
    objects: list[ObjectInstance] = []
    for i, keys in enumerate(per_object):
        bits = [0] * width
        for key in keys:
            j = column.get(key)
            if j is not None:
                bits[j] = 1
        objects.append(ObjectInstance(i, labels[i], tuple(bits)))
    return Corpus(space, tuple(objects))


def parse_matrix(text: str) -> Corpus:
    """Parse "label,b1,b2,..." rows straight into a corpus.

    Features are auto-named f0..f{F-1}; nothing is dropped here, so
    acceptance of a matrix corpus never depends on encoding choices.
    """
    reader = csv.reader(io.StringIO(text))
    raw: list[tuple[int, list[str]]] = []
    for row in reader:
        if not row or not any(cell.strip() for cell in row):
            continue
        raw.append((reader.line_num, [cell.strip() for cell in row]))
    if not raw:
        raise ParseError("empty input: no rows")
    arity = len(raw[0][1])
    if arity < 2:
        raise ParseError(f"line {raw[0][0]}: a matrix row needs a label and at least one bit")
    objects: list[ObjectInstance] = []
    for obj_id, (line_num, cells) in enumerate(raw):
        if len(cells) != arity:
            raise ParseError(f"line {line_num}: expected {arity} fields, got {len(cells)}")
        bits: list[int] = []
        for pos, cell in enumerate(cells[1:]):
            if cell not in ("0", "1"):
                raise ParseError(f"line {line_num}: bit {pos} is {cell!r}, expected 0 or 1")
            bits.append(int(cell))
        objects.append(ObjectInstance(obj_id, cells[0], tuple(bits)))
    space = FeatureSpace(tuple((f"f{i}", f"f{i}") for i in range(arity - 1)))
    return Corpus(space, tuple(objects))


def decode_table(corpus: Corpus) -> Table:
    """Invert one-hot encoding back to a multi-valued table.

    Only defined for one-hot corpora: each attribute block must hold at
    most one set indicator per object (none decodes as missing).
    """
    blocks = corpus.space.attribute_blocks()
    attributes = tuple(blocks.keys())
    rows: list[tuple[str, ...]] = []
    for obj in corpus.objects:
        cells: list[str] = []
        for attr in attributes:
            hits = [f for f in blocks[attr] if obj.bits[f]]
            if len(hits) > 1:
                raise CorpusError(
                    f"object {obj.label!r}: attribute {attr!r} has {len(hits)} set indicators"
                )
            cells.append(corpus.space.features[hits[0]][1] if hits else "")
        rows.append(tuple(cells))
    return Table(attributes, tuple(rows), tuple(obj.label for obj in corpus.objects))


def emit_json(result: "RunResult") -> str:
    """Serialize a run's structured record as stable, key-ordered JSON."""
    return json.dumps(description.report_record(result), indent=2) + "\n"
