"""Generate-and-test clustering engine: one loop over a fallback chain.

Three hunts hypothesize actions. Object hunting grows an existing
category by one object. Protoseed hunting promotes the
strongest-affinity unclustered pair to a new two-member category.
Prototype merging collapses two categories into one. Each hunt returns
the next field with the step that made it, or None at an impasse. Each
pass of the loop takes the first of object hunting, protoseed hunting
and merging that finds an action: object hunting falls back to
protoseed hunting, protoseed hunting to merging, and a merging impasse
ends the run. Every accepted hypothesis must leave the whole field
valid (each cohesion at or above its threshold, each
cohesion-minus-cross-affinity margin at or above its threshold), so the
final field always satisfies both thresholds.

Selection is greedy and fully deterministic: candidates are ranked by
the statistic they improve, ties broken by lowest object id and then
lowest category index. Two runs over the same corpus and parameters
produce identical traces, reports, and serialized output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Optional, Sequence

from . import description, information
from .model import (
    Category,
    ConceptField,
    Corpus,
    Parameters,
)


@dataclass(frozen=True)
class TraceStep:
    """One accepted action. Category indices are positions after the action."""

    action: str  # "protoseed" | "add" | "merge"
    objects: tuple[int, ...]
    category: int
    cohesion: float
    merged_from: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class FieldValidity:
    """Cohesion and pairwise cross-affinity of a field, plus the verdict."""

    cohesions: tuple[float, ...]
    distinctiveness: tuple[tuple[float, ...], ...]
    ok: bool


@dataclass(frozen=True)
class RunResult:
    corpus: Corpus
    params: Parameters
    field: ConceptField
    validity: FieldValidity
    trace: tuple[TraceStep, ...]
    warnings: tuple[str, ...]
    report: str


AffinityMatrix = tuple[tuple[float, ...], ...]


def affinity_matrix(corpus: Corpus) -> AffinityMatrix:
    """Symmetric pairwise affinity lookup; the diagonal is unused and zero."""
    n = len(corpus)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = information.affinity(corpus.objects[i], corpus.objects[j])
            rows[i][j] = a
            rows[j][i] = a
    return tuple(tuple(r) for r in rows)


def _mean_within(aff: AffinityMatrix, ids: Sequence[int]) -> float:
    total = 0.0
    pairs = 0
    for x, i in enumerate(ids):
        for j in ids[x + 1 :]:
            total += aff[i][j]
            pairs += 1
    return total / pairs


def _mean_across(aff: AffinityMatrix, left: Sequence[int], right: Sequence[int]) -> float:
    pairs = sorted((min(i, j), max(i, j)) for i in left for j in right)
    total = 0.0
    for i, j in pairs:
        total += aff[i][j]
    return total / len(pairs)


def _mean_to_others(aff: AffinityMatrix, ids: Sequence[int], i: int) -> float:
    total = 0.0
    for j in ids:
        if j != i:
            total += aff[i][j]
    return total / (len(ids) - 1)


def _new_category(ids: Sequence[int], aff: AffinityMatrix) -> Category:
    members = tuple(sorted(ids))
    w = _mean_within(aff, members)
    best = min(members, key=lambda i: (-_mean_to_others(aff, members, i), i))
    return Category(members, w, best)


def _validity(
    member_sets: Sequence[Sequence[int]], params: Parameters, aff: AffinityMatrix
) -> FieldValidity:
    cohesions = tuple(_mean_within(aff, s) for s in member_sets)
    k = len(member_sets)
    matrix = [[0.0] * k for _ in range(k)]
    ok = all(w >= params.cohesion_threshold for w in cohesions)
    for i in range(k):
        for j in range(i + 1, k):
            d = _mean_across(aff, member_sets[i], member_sets[j])
            matrix[i][j] = d
            matrix[j][i] = d
            if cohesions[i] - d < params.distinctiveness_threshold:
                ok = False
            if cohesions[j] - d < params.distinctiveness_threshold:
                ok = False
    return FieldValidity(cohesions, tuple(tuple(row) for row in matrix), ok)


def field_valid(field: ConceptField, corpus: Corpus, params: Parameters) -> FieldValidity:
    """Evaluate every cohesion and margin of a field. An empty field is valid."""
    members = [c.members for c in field.categories]
    return _validity(members, params, affinity_matrix(corpus))


def _advance(
    field: ConceptField,
    aff: AffinityMatrix,
    member_sets: Sequence[tuple[int, ...]],
    index: int,
    action: str,
    objects: tuple[int, ...] = (),
    merged_from: Optional[tuple[int, int]] = None,
) -> tuple[ConceptField, TraceStep]:
    """The field whose categories hold member_sets, and the step that made it.

    Only member_sets[index] is a new category; every other set is an
    existing category, reused as it is. The step's objects leave the
    unclustered residue.
    """
    kept = {c.members: c for c in field.categories}
    new = _new_category(member_sets[index], aff)
    categories = tuple(new if k == index else kept[s] for k, s in enumerate(member_sets))
    gone = set(objects)
    unclustered = tuple(u for u in field.unclustered if u not in gone)
    step = TraceStep(action, objects, index, new.cohesion, merged_from)
    return ConceptField(categories, unclustered), step


def protoseed_hunt(
    field: ConceptField, aff: AffinityMatrix, params: Parameters
) -> Optional[tuple[ConceptField, TraceStep]]:
    """Promote the best-affinity unclustered pair, if the field stays valid.

    Only the single maximum-affinity pair of the corpus's affinity
    matrix aff among the field's unclustered objects (ties:
    lexicographically smallest id pair) is hypothesized. Returns the
    field with the pair appended as a new category, and its step; None
    signals an impasse.
    """
    best_pair: Optional[tuple[int, int]] = None
    best_aff = 0.0
    for i, j in combinations(sorted(field.unclustered), 2):
        a = aff[i][j]
        if a > 0.0 and (best_pair is None or a > best_aff):
            best_aff = a
            best_pair = (i, j)
    if best_pair is None:
        return None
    member_sets = [c.members for c in field.categories] + [best_pair]
    if not _validity(member_sets, params, aff).ok:
        return None
    return _advance(field, aff, member_sets, len(field.categories), "protoseed", best_pair)


def object_hunt(
    field: ConceptField, aff: AffinityMatrix, params: Parameters
) -> Optional[tuple[ConceptField, TraceStep]]:
    """Best valid (object, category) addition to the field, by post-addition cohesion.

    Cohesions come from the corpus's affinity matrix aff. Ties break by
    lowest object id, then lowest category index. Returns the field
    with the object added, and its step; None signals an impasse,
    which a field without categories always is.
    """
    best_key: Optional[tuple[float, int, int]] = None
    best: Optional[tuple[list[tuple[int, ...]], int, int]] = None
    for idx, cat in enumerate(field.categories):
        for obj in field.unclustered:
            ids = tuple(sorted(cat.members + (obj,)))
            key = (-_mean_within(aff, ids), obj, idx)
            if best_key is not None and key >= best_key:
                continue
            member_sets = [c.members for c in field.categories]
            member_sets[idx] = ids
            if _validity(member_sets, params, aff).ok:
                best_key = key
                best = (member_sets, idx, obj)
    if best is None:
        return None
    member_sets, idx, obj = best
    return _advance(field, aff, member_sets, idx, "add", (obj,))


def merge_hunt(
    field: ConceptField, aff: AffinityMatrix, params: Parameters
) -> Optional[tuple[ConceptField, TraceStep]]:
    """Best valid pair of the field's categories to merge, by merged cohesion.

    Cohesions come from the corpus's affinity matrix aff. Ties break by
    lowest index pair. Returns the field with category j merged into
    category i, and its step; None signals an impasse.
    """
    best_key: Optional[tuple[float, int, int]] = None
    best: Optional[tuple[list[tuple[int, ...]], int, int]] = None
    for i, j in combinations(range(len(field.categories)), 2):
        merged = tuple(sorted(field.categories[i].members + field.categories[j].members))
        key = (-_mean_within(aff, merged), i, j)
        if best_key is not None and key >= best_key:
            continue
        member_sets = [c.members for k, c in enumerate(field.categories) if k != j]
        member_sets[i] = merged
        if _validity(member_sets, params, aff).ok:
            best_key = key
            best = (member_sets, i, j)
    if best is None:
        return None
    member_sets, i, j = best
    return _advance(field, aff, member_sets, i, "merge", merged_from=(i, j))


def run(
    corpus: Corpus,
    params: Parameters = Parameters(),
    *,
    on_action: Optional[Callable[[ConceptField, TraceStep], None]] = None,
) -> RunResult:
    """Cluster a corpus to quiescence and describe the resulting field.

    Each pass takes the first hunt, in the fallback order object,
    protoseed, merge, that finds an acceptable action; a pass where all
    three reach an impasse ends the run. Then each category's rule is
    extracted and the report rendered. Unclustered residue is a
    legitimate outcome; objects are never force-assigned. The optional
    on_action callback sees the field after every accepted action.
    """
    warnings = corpus.validate()
    aff = affinity_matrix(corpus)
    n = len(corpus)
    field = ConceptField.initial(n)
    trace: list[TraceStep] = []
    while found := (
        object_hunt(field, aff, params)
        or protoseed_hunt(field, aff, params)
        or merge_hunt(field, aff, params)
    ):
        field, step = found
        trace.append(step)
        if len(trace) > 2 * n:
            raise AssertionError("engine exceeded its action bound")
        if not field.is_partition_of(n):
            raise AssertionError("engine broke the partition invariant")
        if on_action is not None:
            on_action(field, step)

    validity = _validity([c.members for c in field.categories], params, aff)
    if field.categories and not validity.ok:
        raise AssertionError("engine finished with an invalid field")

    clustered = field.clustered()
    described = tuple(
        replace(cat, rule=description.polymorphous_rule(cat, corpus, params.rule_alpha, clustered))
        for cat in field.categories
    )
    field = ConceptField(described, field.unclustered)

    report = description.render_report(field, corpus, validity, tuple(trace), params)
    return RunResult(
        corpus=corpus,
        params=params,
        field=field,
        validity=validity,
        trace=tuple(trace),
        warnings=warnings,
        report=report,
    )
