"""Shared fixtures, corpus-building helpers and object-level oracles.

``PairTable``, ``entropy`` and ``transmission`` are the table-level
reference: a built 2x2 table and its mutual information from three
generic entropy loops. ``object_pair_table`` fills a pair's table bit by
bit, and ``PairTable.of`` builds the same table from four counts.
``table_gated_transmission`` gates a built table on its determinant;
the program decides the same gate on the four counts and computes the
entropies straight from them, with no table, in
``information.gated_transmission``. ``bit_ones`` counts a row's ones
bit by bit, against ``ObjectInstance.ones``.
``cohesion``, ``distinctiveness`` and ``best_member`` compute a
category's statistics from its objects, one ``information.affinity``
call per pair. The program computes the same statistics once, over the
affinity matrix, in ``engine``; these are the references it is checked
against. ``keyword_rows`` and ``keyword_corpus`` build seeded keyword
corpora of any size straight from keyword ids. ``retrieve_by_seed_scan``
ranks every object by its own ``information.affinity`` to the seed;
the program asks the kernel once per distinct (n11, size) table,
through the corpus's feature index. ``retrieve_sorted_scan``
sorts every matching (count, id) pair, against the count groups that
``retrieval.retrieve`` reads in order. ``misclassification`` counts a
rule's false alarms and misses over a field, through
``ObjectInstance.count``, the count that rule queries use.
``by_count_scan`` groups objects by their number of given features one
bit at a time, against the bit-sliced counter
``Corpus.by_count``. ``resolve_name_scan`` resolves a feature name by
scanning every feature's names tier by tier, against the one name table
of ``FeatureSpace.index_of``. ``scan_feature_frequencies``,
``scan_polymorphous_rule`` and ``scan_warnings`` are the column scans
that rule extraction and the constant-feature warnings used before they
read the corpus's feature bitmaps: a ``Counter`` over each row's
``present`` features, a set of the outsiders' features and one
``ObjectInstance.count`` per object. ``oracle_parse_refer`` reads each
refer line with a regular expression for field codes and two module-level
searches for the "abstract N" label; ``dataio.parse_refer`` reads each
line once, by its first two characters. ``reference_run`` is the
engine's contract followed literally: every candidate of every hunt
tested, with exact ``Fraction`` means and lowest-id ties, against the
float sums and the key-order skip of ``engine.run``.
``whole_field_accept`` is the engine's acceptance rule testing each
move on its whole field with ``engine._validity``; ``engine._accept``
scores the field once and judges a move on what it changes.
``planted_corpus`` builds seeded copies of random prototypes with the
prototype each object copies, for mid-size comparisons with
``reference_run``; the benchmark's generator in ``perfbench`` is its own.
``scored_tables`` empties the kernel's table memo
(``information.table_score``) and collects the keys it is asked for.
``group_average`` is a traditional clustering baseline, group-average
linkage on exact sums over the engine's affinity matrix, against which
the engine's categories are compared, not judged.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from typing import Callable, Iterable, Optional, Sequence

import pytest

from polyclust import datasets, engine, information
from polyclust.dataio import ParseError, RefRecord
from polyclust.information import Bits, affinity
from polyclust.model import (
    Category,
    ConceptField,
    Corpus,
    FeatureSpace,
    ObjectInstance,
    Parameters,
    PolymorphousRule,
)
from polyclust.retrieval import PolymorphousQuery


def bits_corpus(
    patterns: Sequence[str],
    labels: Optional[Sequence[str]] = None,
    features: Optional[Sequence[str]] = None,
) -> Corpus:
    """Corpus from bit strings like "1100", with auto feature names f0.."""
    width = len(patterns[0])
    names = list(features) if features else [f"f{i}" for i in range(width)]
    space = FeatureSpace(tuple((name, name) for name in names))
    labs = list(labels) if labels else [f"o{i}" for i in range(len(patterns))]
    objects = tuple(
        ObjectInstance(i, labs[i], tuple(int(c) for c in pattern))
        for i, pattern in enumerate(patterns)
    )
    return Corpus(space, objects)


def planted_corpus(
    seed: int, n: int, *, width: int = 40, k: int = 4, flip: float = 0.1
) -> tuple[Corpus, tuple[int, ...]]:
    """Seeded copies of k random prototypes, with the prototype each object copies.

    Prototypes are dealt to the n objects round robin and shuffled, so
    each has n/k objects, rounded; every bit of a copy is flipped with
    probability flip. Returns the corpus and each object's prototype.
    """
    rng = random.Random(f"planted-corpus:{seed}:{n}:{width}:{k}:{flip}")
    prototypes = [[rng.randrange(2) for _ in range(width)] for _ in range(k)]
    assignment = [i % k for i in range(n)]
    rng.shuffle(assignment)
    rows = [
        "".join("1" if bit != (rng.random() < flip) else "0" for bit in prototypes[p])
        for p in assignment
    ]
    return bits_corpus(rows), tuple(assignment)


def keyword_rows(
    seed: int, n: int, vocab: int, sizes: tuple[int, int] = (10, 10), topics: int = 8
) -> list[list[int]]:
    """Seeded keyword records, as ascending lists of keyword ids below vocab.

    Record i belongs to topic t = i mod topics, whose own words are the
    30 ids from 30·t on, modulo vocab. It holds a number of distinct
    keywords drawn from the range ``sizes``, each from its topic's words
    with probability 0.7 and from the whole vocabulary otherwise. At n 2000, vocab 1536 and size 10 this is the
    shape of the retrieval benchmark's corpus.
    """
    rng = random.Random(f"keyword-rows:{seed}:{n}:{vocab}:{sizes}:{topics}")
    rows: list[list[int]] = []
    for i in range(n):
        own = [(i % topics * 30 + w) % vocab for w in range(30)]
        size = rng.randint(*sizes)
        chosen: set[int] = set()
        while len(chosen) < size:
            chosen.add(rng.choice(own) if rng.random() < 0.7 else rng.randrange(vocab))
        rows.append(sorted(chosen))
    return rows


def keyword_corpus(rows: Sequence[Iterable[int]], width: int) -> Corpus:
    """Corpus of ``width`` keyword features k0.. whose object i holds the ids in rows[i]."""
    space = FeatureSpace(tuple((f"k{f}", f"k{f}") for f in range(width)))
    objects = []
    for i, row in enumerate(rows):
        bits = bytearray(width)
        for f in row:
            bits[f] = 1
        objects.append(ObjectInstance(i, f"r{i}", bytes(bits)))
    return Corpus(space, tuple(objects))


def with_rows(corpus: Corpus, rows: Callable[[Sequence[int]], Sequence[int]]) -> Corpus:
    """The same corpus with each object's bits rebuilt by ``rows``, e.g. ``bytes``."""
    objects = tuple(replace(obj, bits=rows(obj.bits)) for obj in corpus.objects)
    return Corpus(corpus.space, objects)


def scored_tables(monkeypatch: pytest.MonkeyPatch) -> set[tuple[int, int, int, int]]:
    """Empty the kernel's table memo, then collect every key asked of it from here on.

    Every key asked for is an entry of the memo, so the set holds the
    memo's keys: as many as ``information.table_score.cache_info().currsize``.
    """
    information.table_score.cache_clear()
    keys: set[tuple[int, int, int, int]] = set()
    real = information.table_score

    def asking(n11: int, small: int, large: int, width: int) -> Bits:
        keys.add((n11, small, large, width))
        return real(n11, small, large, width)

    monkeypatch.setattr(information, "table_score", asking)
    return keys


@dataclass(frozen=True)
class PairTable:
    """2x2 co-occurrence counts between two equal-length bit vectors."""

    n11: int
    n10: int
    n01: int
    n00: int

    @classmethod
    def of(cls, n11: int, ones_a: int, ones_b: int, width: int) -> PairTable:
        """The table of two rows of width features, with ones_a and ones_b ones, n11 shared."""
        return cls(n11, ones_a - n11, ones_b - n11, width - ones_a - ones_b + n11)

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    def cells(self) -> tuple[int, int, int, int]:
        return (self.n11, self.n10, self.n01, self.n00)

    @property
    def determinant(self) -> int:
        return self.n11 * self.n00 - self.n10 * self.n01


def entropy(counts: Sequence[int]) -> Bits:
    """Shannon entropy of a count distribution, with 0 log 0 taken as 0."""
    total = 0
    for c in counts:
        if c < 0:
            raise ValueError(f"negative count {c}")
        total += c
    if total == 0:
        raise ValueError("empty distribution")
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return abs(h) if h == 0.0 else h


def transmission(t: PairTable) -> Bits:
    """Mutual information of a 2x2 table in bits, clamped at 0 against rounding."""
    if t.total == 0:
        raise ValueError("empty table")
    rows = (t.n11 + t.n10, t.n01 + t.n00)
    cols = (t.n11 + t.n01, t.n10 + t.n00)
    # cells are summed in sorted order so transposed tables round identically
    value = entropy(rows) + entropy(cols) - entropy(sorted(t.cells()))
    return value if value > 0.0 else 0.0


def object_pair_table(a: ObjectInstance, b: ObjectInstance) -> PairTable:
    """Count feature positions by the (a, b) bit combination they hold, bit by bit."""
    if len(a.bits) != len(b.bits):
        raise ValueError(
            f"length mismatch: {a.label!r} has {len(a.bits)} bits, "
            f"{b.label!r} has {len(b.bits)}"
        )
    n11 = n10 = n01 = n00 = 0
    for x, y in zip(a.bits, b.bits):
        if x:
            if y:
                n11 += 1
            else:
                n10 += 1
        elif y:
            n01 += 1
        else:
            n00 += 1
    return PairTable(n11, n10, n01, n00)


def table_gated_transmission(t: PairTable) -> Bits:
    """Transmission of a built table, zero unless its determinant is positive."""
    return transmission(t) if t.determinant > 0 else 0.0


def bit_ones(obj: ObjectInstance) -> int:
    """The object's number of features, one bit at a time."""
    return sum(1 for b in obj.bits if b == 1)


def cohesion(members: Iterable[ObjectInstance]) -> Bits:
    """Mean affinity over all unordered member pairs."""
    objs = sorted(members, key=lambda o: o.id)
    if len(objs) < 2:
        raise ValueError("cohesion needs at least 2 members")
    total = 0.0
    pairs = 0
    for i, a in enumerate(objs):
        for b in objs[i + 1 :]:
            total += affinity(a, b)
            pairs += 1
    return total / pairs


def distinctiveness(c: Iterable[ObjectInstance], other: Iterable[ObjectInstance]) -> Bits:
    """Mean affinity over all cross pairs between two disjoint member sets."""
    left = {o.id: o for o in c}
    right = {o.id: o for o in other}
    if not left or not right:
        raise ValueError("distinctiveness needs two non-empty member sets")
    overlap = set(left) & set(right)
    if overlap:
        raise ValueError(f"overlapping member sets: ids {sorted(overlap)}")
    pairs = sorted((min(i, j), max(i, j)) for i in left for j in right)
    by_id = {**left, **right}
    total = 0.0
    for i, j in pairs:
        total += affinity(by_id[i], by_id[j])
    return total / len(pairs)


def best_member(category: Category, corpus: Corpus) -> int:
    """The member with maximal mean affinity to the others; ties go to the lowest id."""
    ids = category.members

    def mean_affinity(i: int) -> float:
        total = 0.0
        for j in ids:
            if j != i:
                total += information.affinity(corpus.objects[i], corpus.objects[j])
        return total / (len(ids) - 1)

    return min(ids, key=lambda i: (-mean_affinity(i), i))


def retrieve_by_seed_scan(
    corpus: Corpus, seed: int, k: int
) -> tuple[tuple[int, float], ...]:
    """Top-k non-seed objects by affinity to the seed, ties by id, scanning every object."""
    seed_obj = corpus.objects[seed]
    ranked = [
        (information.affinity(seed_obj, obj), obj.id)
        for obj in corpus.objects
        if obj.id != seed
    ]
    ranked.sort(key=lambda t: (-t[0], t[1]))
    return tuple((obj_id, aff) for aff, obj_id in ranked[:k])


def retrieve_sorted_scan(corpus: Corpus, query: PolymorphousQuery) -> tuple[int, ...]:
    """``retrieval.retrieve`` as a sort of every matching (count, id) pair."""
    m, features = query.m, query.feature_set
    width = len(corpus.space)
    if max(features) >= width:
        past = ", ".join(str(f) for f in features if f >= width)
        raise ValueError(f"feature index {past} out of range for {width} features")
    scored = [(c, obj.id) for obj in corpus.objects if (c := obj.count(features)) >= m]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return tuple(obj_id for _, obj_id in scored)


def margin(
    cohesions: Sequence[float], cross: Sequence[Sequence[float]], i: int
) -> Optional[float]:
    """Smallest margin of category i's cohesion over its cross affinities; None alone."""
    others = [cohesions[i] - cross[i][j] for j in range(len(cohesions)) if j != i]
    return min(others) if others else None


def misclassification(
    rule: PolymorphousRule, category: Category, field: ConceptField, corpus: Corpus
) -> tuple[int, int]:
    """(false alarms, misses) of a category's rule against the clustered objects.

    Misses are asserted to be zero: the rule's m is the minimum feature
    count over the members it was extracted from.
    """

    def satisfied(i: int) -> bool:
        return corpus.objects[i].count(rule.feature_set) >= rule.m

    members = set(category.members)
    false_alarms = sum(1 for i in field.clustered() if i not in members and satisfied(i))
    misses = sum(1 for i in category.members if not satisfied(i))
    assert misses == 0, f"rule misses {misses} of its own members"
    return false_alarms, misses


def by_count_scan(corpus: Corpus, features: Sequence[int], among: int) -> list[tuple[int, int]]:
    """``Corpus.by_count`` counted one object and one bit at a time, highest count first."""
    groups: dict[int, int] = {}
    for obj in corpus.objects:
        if among >> obj.id & 1:
            count = sum(1 for f in features if obj.bits[f] == 1)
            groups[count] = groups.get(count, 0) | 1 << obj.id
    return sorted(groups.items(), reverse=True)


def resolve_name_scan(space: FeatureSpace, name: str) -> tuple[int, list[int]]:
    """``(tier, ids)``: the features that answer to ``name`` at the first tier where any does.

    Tier 1 is the display labels; tier 2 each feature's other forms
    (``attribute=value``, its attribute or its value when no other
    feature has it) that are not display labels; tier 3 every name of
    the first two, up to case. Each tier is a scan over the features, in
    id order. A name no feature answers to gives ``(0, [])``.
    """
    labels = set(space.labels)

    def forms(idx: int) -> set[str]:
        attr, value = space.features[idx]
        out = {f"{attr}={value}"}
        if sum(a == attr for a, _ in space.features) == 1:
            out.add(attr)
        if sum(v == value for _, v in space.features) == 1:
            out.add(value)
        return out - labels

    def folded(idx: int) -> set[str]:
        return {n.lower() for n in forms(idx) | {space.labels[idx]}}

    tiers: tuple[Callable[[int], bool], ...] = (
        lambda idx: name == space.labels[idx],
        lambda idx: name in forms(idx),
        lambda idx: name.lower() in folded(idx),
    )
    for tier, answers in enumerate(tiers, 1):
        hits = [idx for idx in range(len(space)) if answers(idx)]
        if hits:
            return tier, hits
    return 0, []


def scan_feature_frequencies(category: Category, corpus: Corpus) -> tuple[float, ...]:
    """In-category frequency of every feature, from a Counter over the members' ``present``."""
    k = len(category.members)
    counts = Counter(chain.from_iterable(corpus.objects[i].present() for i in category.members))
    return tuple(counts[f] / k for f in range(len(corpus.space)))


def scan_polymorphous_rule(
    category: Category, corpus: Corpus, alpha: float, clustered: Iterable[int]
) -> Optional[PolymorphousRule]:
    """The category's rule from a set of the outsiders' features and per-object counts."""
    freqs = scan_feature_frequencies(category, corpus)
    feature_set = tuple(
        sorted((f for f in range(len(freqs)) if freqs[f] >= alpha),
               key=lambda f: (-freqs[f], f))
    )
    if not feature_set:
        return None
    objects = corpus.objects
    m = min(objects[i].count(feature_set) for i in category.members)
    necessary = tuple(f for f in range(len(freqs)) if freqs[f] == 1.0)
    outside = sorted(set(clustered) - set(category.members))
    held_outside = set(chain.from_iterable(objects[o].present() for o in outside))
    sufficient = tuple(
        f for f in range(len(freqs)) if freqs[f] > 0.0 and f not in held_outside
    )
    alarms = sum(1 for o in outside if objects[o].count(feature_set) >= m)
    rate = alarms / len(outside) if outside else 0.0
    return PolymorphousRule(m, feature_set, necessary, sufficient, rate)


def scan_warnings(corpus: Corpus) -> tuple[str, ...]:
    """``Corpus.warnings`` from column sums, a Counter over every row's ``present``."""
    objs = corpus.objects
    n = len(objs)
    if n < 2:
        return ()
    first = objs[0].bits
    column_sums = Counter(chain.from_iterable(obj.present() for obj in objs))
    return tuple(
        f"feature {f} constant ({label!r} is {first[f]} in every object)"
        for f, label in enumerate(corpus.space.labels)
        if column_sums[f] in (0, n)
    )


_FIELD_LINE = re.compile(r"^%([A-Za-z])(\s+(.*))?$")


def oracle_parse_refer(text: str) -> tuple[RefRecord, ...]:
    """Refer records read line by line through ``_FIELD_LINE``, as ``dataio.parse_refer`` must."""
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
        unique = tuple(dict.fromkeys(k for k in keywords if k))
        if not unique:
            raise ParseError(f"record {label!r} has no keyword lines (%#)")
        records.append(RefRecord(label, title, unique))
    return tuple(records)


def make_category(corpus: Corpus, ids: Sequence[int]) -> Category:
    """Category with cohesion and best member recomputed from scratch."""
    members = tuple(sorted(ids))
    w = cohesion([corpus.objects[i] for i in members])
    provisional = Category(members, w, members[0])
    return Category(members, w, best_member(provisional, corpus))


def whole_field_accept(
    field: ConceptField,
    aff: engine.AffinityMatrix,
    params: Parameters,
    moves: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
) -> Optional[tuple[ConceptField, engine.TraceStep]]:
    """``engine._accept`` with each move tested on the whole field it would leave.

    A move ``(added, replaced)`` makes a category of the added objects and
    the replaced categories' members, keyed by its negated cohesion, then
    added, then replaced. Each move whose key beats the best valid key so
    far has its members join the field's member sets in place of the
    replaced ones, and ``engine._validity`` scores every cohesion and
    every pair of the result, which no order of the sets changes.
    ``engine._apply`` makes the winner's step.
    """
    best = None
    for added, replaced in moves:
        taken = [i for k in replaced for i in field.categories[k].members]
        members = tuple(sorted(added + tuple(taken)))
        key = (-engine._mean(aff, combinations(members, 2)), *added, *replaced)
        if best is not None and key >= best[0]:
            continue
        member_sets = [c.members for k, c in enumerate(field.categories) if k not in replaced]
        if engine._validity(member_sets + [members], params, aff).ok:
            best = key, members, added, replaced
    return None if best is None else engine._apply(field, aff, *best)


Step = tuple[str, tuple[int, ...], int, Optional[tuple[int, int]]]


def reference_run(
    corpus: Corpus, params: Parameters
) -> tuple[tuple[Step, ...], tuple[tuple[tuple[int, ...], int], ...], tuple[int, ...]]:
    """The engine's contract, literally: ``(trace, categories, unclustered)``.

    Each pass tries object hunting, then protoseed hunting, then merging,
    and takes the first that finds a valid action; a pass where all three
    find none ends the run. Object hunting and merging test every
    candidate, with no key-order skip, and keep the best valid key.
    Protoseed hunting's one candidate is the highest-affinity unclustered
    pair, lowest pair on ties, if positive. Cohesion, cross affinity and
    the prototype are exact ``Fraction`` means of the float affinities
    (each float is a dyadic rational), and the thresholds compare as
    ``Fraction(threshold)``. Ties go to the lowest object id, then the
    lowest category index. A step is ``(action, objects, category,
    merged_from)`` and a category ``(members, best member)``, as
    ``engine.run`` reports them.
    """
    objs = corpus.objects
    aff = [[Fraction(affinity(a, b)) if a is not b else Fraction(0) for b in objs] for a in objs]
    min_cohesion = Fraction(params.cohesion_threshold)
    min_margin = Fraction(params.distinctiveness_threshold)

    def mean(pairs: Iterable[tuple[int, int]]) -> Fraction:
        values = [aff[i][j] for i, j in pairs]
        return sum(values, Fraction(0)) / len(values)

    @cache
    def exact_cohesion(members: tuple[int, ...]) -> Fraction:
        return mean(combinations(members, 2))

    @cache
    def cross(left: tuple[int, ...], right: tuple[int, ...]) -> Fraction:
        return mean(product(left, right))

    def valid(sets: list[tuple[int, ...]]) -> bool:
        cohesions = [exact_cohesion(s) for s in sets]
        return all(w >= min_cohesion for w in cohesions) and all(
            min(cohesions[i], cohesions[j]) - cross(sets[i], sets[j]) >= min_margin
            for i, j in combinations(range(len(sets)), 2)
        )

    def prototype(members: tuple[int, ...]) -> int:
        return min(members, key=lambda i: (-mean((i, j) for j in members if j != i), i))

    categories: list[tuple[int, ...]] = []
    unclustered = list(range(len(objs)))
    trace: list[Step] = []
    while True:
        best = None  # (key, next categories, step) of the best valid candidate
        for idx, cat in enumerate(categories):
            for obj in unclustered:
                grown = tuple(sorted(cat + (obj,)))
                sets = categories[:idx] + [grown] + categories[idx + 1 :]
                key = (-exact_cohesion(grown), obj, idx)
                if valid(sets) and (best is None or key < best[0]):
                    best = key, sets, ("add", (obj,), idx, None)
        if best is None:
            pairs = combinations(unclustered, 2)
            pair = min(pairs, key=lambda p: (-aff[p[0]][p[1]], p), default=None)
            if pair is not None and aff[pair[0]][pair[1]] > 0 and valid(categories + [pair]):
                best = None, categories + [pair], ("protoseed", pair, len(categories), None)
        if best is None:
            for i, j in combinations(range(len(categories)), 2):
                merged = tuple(sorted(categories[i] + categories[j]))
                rest = [c for k, c in enumerate(categories) if k not in (i, j)]
                sets = rest[:i] + [merged] + rest[i:]
                key = (-exact_cohesion(merged), i, j)
                if valid(sets) and (best is None or key < best[0]):
                    best = key, sets, ("merge", (), i, (i, j))
        if best is None:
            break
        _, categories, step = best
        trace.append(step)
        unclustered = [u for u in unclustered if u not in step[1]]
    return tuple(trace), tuple((c, prototype(c)) for c in categories), tuple(unclustered)


def group_average(aff: Sequence[Sequence[float]], k: int) -> tuple[tuple[int, ...], ...]:
    """Group-average (UPGMA) clusters over an affinity matrix, merged down to k.

    Agglomerative linkage (Sokal & Michener 1958) over every object: each
    step merges the two clusters of highest mean cross affinity, ties to
    the lowest (id, id) pair, a cluster's id being its lowest member. The
    cross sums are exact ``Fraction``s of the float affinities, kept by
    the Lance & Williams (1967) recurrence, which for group average is:
    the sum from c to a merged a + b is the sum to a plus the sum to b.
    Returns the clusters by id, each member list ascending.
    """
    members = {i: [i] for i in range(len(aff))}
    sums = {(i, j): Fraction(aff[i][j]) for i, j in combinations(range(len(aff)), 2)}
    while len(members) > k:
        a, b = max(
            sums,
            key=lambda p: (sums[p] / (len(members[p[0]]) * len(members[p[1]])), -p[0], -p[1]),
        )
        del sums[a, b]
        members[a] += members.pop(b)
        for c in members:
            if c != a:
                sums[min(a, c), max(a, c)] += sums.pop((min(b, c), max(b, c)))
    return tuple(tuple(sorted(m)) for m in members.values())


@pytest.fixture(scope="session")
def shapes_corpus() -> Corpus:
    return datasets.shapes_corpus()


@pytest.fixture(scope="session")
def abstracts_corpus() -> Corpus:
    return datasets.abstracts_corpus()
