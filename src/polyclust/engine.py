"""Three-state generate-and-test clustering engine.

The engine escalates through three hypothesis states. Protoseed hunting
promotes the strongest-affinity unclustered pair to a new two-member
category. Object hunting grows existing categories one object at a
time. Prototype merging collapses two categories into one. A state that
can produce no acceptable hypothesis is an impasse: object hunting
falls back to protoseed hunting, protoseed hunting to merging, and a
merging impasse ends the run. Every accepted hypothesis must leave the
whole field valid (each cohesion at or above its threshold, each
cohesion-minus-cross-affinity margin at or above its threshold), so the
final field always satisfies both thresholds.

Selection is greedy and fully deterministic: candidates are ranked by
the statistic they improve, ties broken by lowest object id and then
lowest category index. Two runs over the same corpus and parameters
produce identical traces, reports, and serialized output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Optional, Sequence

from . import description, information
from .model import (
    Category,
    ConceptField,
    Corpus,
    Parameters,
    validate_corpus,
)


class Mode(enum.Enum):
    OBJECT_HUNTING = "object_hunting"
    PROTOSEED_HUNTING = "protoseed_hunting"
    PROTOTYPE_MERGING = "prototype_merging"
    DONE = "done"


@dataclass(frozen=True)
class TraceStep:
    """One accepted action. Category indices are positions after the action."""

    action: str  # "protoseed" | "add" | "merge"
    objects: tuple[int, ...]
    category: int
    cohesion: float
    merged_from: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class EngineState:
    mode: Mode
    field: ConceptField


@dataclass(frozen=True)
class FieldValidity:
    """Cohesion and pairwise cross-affinity of a field, plus the verdict."""

    cohesions: tuple[float, ...]
    distinctiveness: tuple[tuple[float, ...], ...]
    ok: bool

    def margin(self, i: int) -> Optional[float]:
        """Smallest cohesion margin of category i over its cross affinities."""
        others = [
            self.cohesions[i] - self.distinctiveness[i][j]
            for j in range(len(self.cohesions))
            if j != i
        ]
        return min(others) if others else None


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


def _require_mode(state: EngineState, mode: Mode) -> None:
    if state.mode is not mode:
        raise ValueError(f"expected mode {mode.value}, state is in {state.mode.value}")


def protoseed_hunt(
    state: EngineState, aff: AffinityMatrix, params: Parameters
) -> Optional[Category]:
    """Promote the best-affinity unclustered pair, if the field stays valid.

    Only the single maximum-affinity pair of the corpus's affinity
    matrix aff (ties: lexicographically smallest id pair) is
    hypothesized; None signals an impasse.
    """
    _require_mode(state, Mode.PROTOSEED_HUNTING)
    best_pair: Optional[tuple[int, int]] = None
    best_aff = 0.0
    for i, j in combinations(sorted(state.field.unclustered), 2):
        a = aff[i][j]
        if a > 0.0 and (best_pair is None or a > best_aff):
            best_aff = a
            best_pair = (i, j)
    if best_pair is None:
        return None
    candidate = _new_category(best_pair, aff)
    member_sets = [c.members for c in state.field.categories] + [candidate.members]
    if _validity(member_sets, params, aff).ok:
        return candidate
    return None


def object_hunt(
    state: EngineState, aff: AffinityMatrix, params: Parameters
) -> Optional[tuple[int, int]]:
    """Best valid (object, category) addition by post-addition cohesion.

    Cohesions come from the corpus's affinity matrix aff. Ties break by
    lowest object id, then lowest category index. None signals an
    impasse.
    """
    _require_mode(state, Mode.OBJECT_HUNTING)
    if not state.field.categories:
        raise ValueError("object hunting requires at least one category")
    field = state.field
    best_key: Optional[tuple[float, int, int]] = None
    best: Optional[tuple[int, int]] = None
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
                best = (obj, idx)
    return best


def merge_hunt(
    state: EngineState, aff: AffinityMatrix, params: Parameters
) -> Optional[tuple[int, int]]:
    """Best valid category pair to merge, by merged cohesion.

    Cohesions come from the corpus's affinity matrix aff. Ties break by
    lowest index pair. None signals an impasse.
    """
    _require_mode(state, Mode.PROTOTYPE_MERGING)
    field = state.field
    best_key: Optional[tuple[float, int, int]] = None
    best: Optional[tuple[int, int]] = None
    for i, j in combinations(range(len(field.categories)), 2):
        merged = tuple(sorted(field.categories[i].members + field.categories[j].members))
        key = (-_mean_within(aff, merged), i, j)
        if best_key is not None and key >= best_key:
            continue
        member_sets = [c.members for k, c in enumerate(field.categories) if k != j]
        member_sets[i] = merged
        if _validity(member_sets, params, aff).ok:
            best_key = key
            best = (i, j)
    return best


def _remove_unclustered(field: ConceptField, ids: Sequence[int]) -> tuple[int, ...]:
    gone = set(ids)
    return tuple(u for u in field.unclustered if u not in gone)


def run(
    corpus: Corpus,
    params: Parameters = Parameters(),
    *,
    on_action: Optional[Callable[[ConceptField, TraceStep], None]] = None,
) -> RunResult:
    """Cluster a corpus to quiescence and describe the resulting field.

    Starts in protoseed hunting over an empty field, follows the
    escalation order until a merging impasse, then extracts each
    category's rule and renders the report. Unclustered residue is a
    legitimate outcome; objects are never force-assigned. The optional
    on_action callback sees the field after every accepted action.
    """
    corpus, warnings = validate_corpus(corpus)
    aff = affinity_matrix(corpus)
    n = len(corpus)
    field = ConceptField.initial(n)
    trace: list[TraceStep] = []
    mode = Mode.PROTOSEED_HUNTING

    def accepted(new_field: ConceptField, step: TraceStep) -> None:
        nonlocal field
        field = new_field
        trace.append(step)
        if len(trace) > 2 * n:
            raise AssertionError("engine exceeded its action bound")
        if not field.is_partition_of(n):
            raise AssertionError("engine broke the partition invariant")
        if on_action is not None:
            on_action(field, step)

    while mode is not Mode.DONE:
        state = EngineState(mode, field)
        if mode is Mode.PROTOSEED_HUNTING:
            candidate = protoseed_hunt(state, aff, params)
            if candidate is None:
                mode = Mode.PROTOTYPE_MERGING
                continue
            new_field = ConceptField(
                field.categories + (candidate,),
                _remove_unclustered(field, candidate.members),
            )
            accepted(
                new_field,
                TraceStep(
                    "protoseed",
                    candidate.members,
                    len(new_field.categories) - 1,
                    candidate.cohesion,
                ),
            )
            mode = Mode.OBJECT_HUNTING
        elif mode is Mode.OBJECT_HUNTING:
            found = object_hunt(state, aff, params)
            if found is None:
                mode = Mode.PROTOSEED_HUNTING
                continue
            obj, idx = found
            updated = _new_category(field.categories[idx].members + (obj,), aff)
            categories = list(field.categories)
            categories[idx] = updated
            new_field = ConceptField(tuple(categories), _remove_unclustered(field, (obj,)))
            accepted(new_field, TraceStep("add", (obj,), idx, updated.cohesion))
        else:  # Mode.PROTOTYPE_MERGING
            found = merge_hunt(state, aff, params)
            if found is None:
                mode = Mode.DONE
                continue
            i, j = found
            merged = _new_category(
                field.categories[i].members + field.categories[j].members, aff
            )
            categories = [c for k, c in enumerate(field.categories) if k != j]
            categories[i] = merged
            new_field = ConceptField(tuple(categories), field.unclustered)
            accepted(
                new_field,
                TraceStep("merge", (), i, merged.cohesion, merged_from=(i, j)),
            )
            mode = Mode.OBJECT_HUNTING

    validity = _validity([c.members for c in field.categories], params, aff)
    if field.categories and not validity.ok:
        raise AssertionError("engine finished with an invalid field")

    clustered = field.clustered()
    described: list[Category] = []
    for cat in field.categories:
        try:
            rule = description.polymorphous_rule(
                cat, corpus, params.rule_alpha, clustered=clustered
            )
        except description.NoRuleFeatures:
            rule = None
        described.append(replace(cat, rule=rule))
    field = ConceptField(tuple(described), field.unclustered)

    report = description.render_report(field, corpus, validity, tuple(trace), params)
    return RunResult(
        corpus=corpus,
        params=params,
        field=field,
        validity=validity,
        trace=tuple(trace),
        warnings=tuple(warnings),
        report=report,
    )
