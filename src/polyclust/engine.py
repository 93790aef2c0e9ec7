"""Generate-and-test clustering engine: one loop over a fallback chain.

Three hunts hypothesize actions. Object hunting grows an existing
category by one object. Protoseed hunting promotes the
strongest-affinity unclustered pair to a new two-member category.
Prototype merging collapses two categories into one. Each pass of the
loop takes the first of object hunting, protoseed hunting and merging
that finds an action: object hunting falls back to protoseed hunting,
protoseed hunting to merging, and a merging impasse ends the run.

A hunt only proposes moves ``(added, replaced)``: the unclustered
objects a new category takes and the indices of the categories it
replaces, a pair and none for a protoseed, one object and one category
for an add, no object and two categories for a merge. ``_accept`` alone
makes each move's members and key and applies one acceptance rule: it
keeps the best-keyed move that leaves the whole field valid (each
cohesion and each cohesion-minus-cross-affinity margin at or above its
threshold, compared in ``_holds`` alone), so the final field always
satisfies both thresholds. It judges a move on what it changes: its own
cohesion, read from its key, and its cross affinity to each category it
keeps. ``_apply`` alone makes the step from the winner. A hunt returns
the next field and its step, or None at an impasse. Every cohesion,
cross affinity and prototype comes from one kernel, ``_mean``, which
averages the matrix over the pairs its caller passes, in order.

Selection is greedy and fully deterministic. One key ranks every move,
``(-cohesion, *added, *replaced)``: the highest cohesion wins, ties to
the lowest object ids and then the lowest category indices. Two runs
over the same corpus and parameters produce identical traces, reports,
and serialized output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, combinations
from typing import Callable, Iterable, Optional, Sequence

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


def _mean(aff: AffinityMatrix, pairs: Iterable[tuple[int, int]]) -> float:
    """Mean of aff[i][j] over pairs, added left to right in the order given.

    A plain loop: ``sum()`` of floats is compensated from Python 3.12 on.
    """
    total = 0.0
    count = 0
    for i, j in pairs:
        total += aff[i][j]
        count += 1
    return total / count


def _cross_pairs(left: Sequence[int], right: Sequence[int]) -> list[tuple[int, int]]:
    """Every pair across two member sets as (min, max), ascending: the same for (right, left)."""
    return sorted((min(i, j), max(i, j)) for i in left for j in right)


def _prototype(members: Sequence[int], aff: AffinityMatrix) -> int:
    return min(members, key=lambda i: (-_mean(aff, ((i, j) for j in members if j != i)), i))


def _holds(cohesion: float, others: Iterable[tuple[float, float]], params: Parameters) -> bool:
    """The field rule for one category, the only place the thresholds are compared.

    Its cohesion must reach the cohesion threshold, and its margin against
    each ``(cohesion, cross affinity)`` of others, the smaller of the two
    cohesions minus the cross affinity, the distinctiveness threshold.
    """
    return cohesion >= params.cohesion_threshold and all(
        min(cohesion, w) - d >= params.distinctiveness_threshold for w, d in others
    )


def _validity(
    member_sets: Sequence[Sequence[int]], params: Parameters, aff: AffinityMatrix
) -> FieldValidity:
    cohesions = tuple(_mean(aff, combinations(s, 2)) for s in member_sets)
    k = len(member_sets)
    matrix = [[0.0] * k for _ in range(k)]
    for i, j in combinations(range(k), 2):
        matrix[i][j] = matrix[j][i] = _mean(aff, _cross_pairs(member_sets[i], member_sets[j]))
    ok = all(
        _holds(cohesions[i], zip(cohesions[i + 1 :], matrix[i][i + 1 :]), params) for i in range(k)
    )
    return FieldValidity(cohesions, tuple(tuple(row) for row in matrix), ok)


def field_valid(field: ConceptField, corpus: Corpus, params: Parameters) -> FieldValidity:
    """Evaluate every cohesion and margin of a field. An empty field is valid."""
    members = [c.members for c in field.categories]
    return _validity(members, params, affinity_matrix(corpus))


def _apply(
    field: ConceptField,
    aff: AffinityMatrix,
    key: tuple[float, ...],
    members: tuple[int, ...],
    added: tuple[int, ...],
    replaced: tuple[int, ...],
) -> tuple[ConceptField, TraceStep]:
    """Make the step of an accepted move: the only place one is made.

    The new category of members, of cohesion ``-key[0]``, takes the first
    replaced index, or comes last; the step's objects are added, and
    ``len(replaced)`` names the action.
    """
    cohesion = -key[0]
    position = replaced[0] if replaced else len(field.categories)
    categories = [c for k, c in enumerate(field.categories) if k not in replaced]
    categories.insert(position, Category(members, cohesion, _prototype(members, aff)))
    unclustered = tuple(u for u in field.unclustered if u not in added)
    action = ("protoseed", "add", "merge")[len(replaced)]
    step = TraceStep(action, added, position, cohesion, replaced if action == "merge" else None)
    return ConceptField(tuple(categories), unclustered), step


def _accept(
    field: ConceptField,
    aff: AffinityMatrix,
    params: Parameters,
    moves: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
) -> Optional[tuple[ConceptField, TraceStep]]:
    """The acceptance rule: apply the best-keyed move that leaves the field valid.

    A move ``(added, replaced)`` makes a category of the added objects
    and the replaced categories' members, keyed ``(-cohesion, *added,
    *replaced)``: this is the one statement of the tie rule. Moves are
    scanned in the order given; one whose key does not beat the best
    valid key so far is skipped. The field as it stands is scored once,
    by ``_validity``; each remaining move is judged on what it changes,
    its cohesion and its cross affinity to each category it keeps. The
    verdict is the one ``_validity`` gives the whole new field, also on a
    field that is already invalid. The winner goes to ``_apply``; None
    when no move is valid.
    """
    sets = [c.members for c in field.categories]
    now = _validity(sets, params, aff)
    w, cross = now.cohesions, now.distinctiveness
    best = None
    for added, replaced in moves:
        members = tuple(sorted(chain(added, *[sets[k] for k in replaced])))
        key = (-_mean(aff, combinations(members, 2)), *added, *replaced)
        if best is not None and key >= best[0]:
            continue
        kept = [k for k in range(len(sets)) if k not in replaced]
        row = [(w[k], _mean(aff, _cross_pairs(members, sets[k]))) for k in kept]
        kept_valid = now.ok or all(
            _holds(w[i], ((w[j], cross[i][j]) for j in kept if j > i), params) for i in kept
        )
        if kept_valid and _holds(-key[0], row, params):
            best = key, members, added, replaced
    return None if best is None else _apply(field, aff, *best)


def protoseed_hunt(
    field: ConceptField, aff: AffinityMatrix, params: Parameters
) -> Optional[tuple[ConceptField, TraceStep]]:
    """Promote the best-affinity unclustered pair to a new, last category.

    The only move is the single maximum-affinity pair of the corpus's
    affinity matrix aff among the field's unclustered objects (ties:
    lexicographically smallest id pair); a pair of zero affinity is
    never one. None signals an impasse, also when that pair would leave
    the field invalid.
    """
    pairs = combinations(sorted(field.unclustered), 2)
    pair = max(pairs, key=lambda p: aff[p[0]][p[1]], default=None)
    if pair is None or aff[pair[0]][pair[1]] <= 0.0:
        return None
    return _accept(field, aff, params, [(pair, ())])


def object_hunt(
    field: ConceptField, aff: AffinityMatrix, params: Parameters
) -> Optional[tuple[ConceptField, TraceStep]]:
    """Add one unclustered object to one category: the best valid addition.

    None signals an impasse, which a field without categories always is.
    """
    moves = (((u,), (k,)) for k in range(len(field.categories)) for u in field.unclustered)
    return _accept(field, aff, params, moves)


def merge_hunt(
    field: ConceptField, aff: AffinityMatrix, params: Parameters
) -> Optional[tuple[ConceptField, TraceStep]]:
    """Merge two of the field's categories: the best valid merge.

    The merged category takes the lower index and the later categories
    shift down. None signals an impasse.
    """
    moves = (((), pair) for pair in combinations(range(len(field.categories)), 2))
    return _accept(field, aff, params, moves)


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
    if not validity.ok:
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
        warnings=corpus.warnings,
        report=report,
    )
