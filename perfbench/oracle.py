"""Output checks: every answer the benchmark times is checked here, off the clock.

The retrieval oracles recompute answers from the generator's ground truth
(rows as sets of feature labels) by brute force, sharing no code with the
program: a rule query by counting labels, a seed query by the mutual
information of each 2x2 co-occurrence table summed with ``math.fsum``.
Each check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import math
from typing import Sequence

# Seed affinities are float sums of four entropy terms in the program and
# an fsum of four mutual-information terms here; they agree far inside this.
AFFINITY_TOL = 1e-9


def pair_mi(ones_a: int, ones_b: int, both: int, width: int) -> float:
    """Gated mutual information, in bits, of two binary rows' 2x2 table."""
    n11 = both
    n10 = ones_a - both
    n01 = ones_b - both
    n00 = width - n11 - n10 - n01
    if n11 * n00 - n10 * n01 <= 0:
        return 0.0
    rows = (n11 + n10, n01 + n00)
    cols = (n11 + n01, n10 + n00)
    terms = [
        cell / width * math.log2(cell * width / (rows[r] * cols[c]))
        for cell, r, c in ((n11, 0, 0), (n10, 0, 1), (n01, 1, 0), (n00, 1, 1))
        if cell
    ]
    return max(0.0, math.fsum(terms))


def check_rule(
    rows: Sequence[frozenset[str]], m: int, labels: Sequence[str], answer: Sequence[int]
) -> list[str]:
    """A rule answer lists every row holding >= m labels, by count desc then id."""
    wanted = frozenset(labels)
    scored = sorted(
        (-len(row & wanted), i) for i, row in enumerate(rows) if len(row & wanted) >= m
    )
    expected = tuple(i for _, i in scored)
    if tuple(answer) != expected:
        return [f"rule {m}:{list(labels)} returned {len(answer)} ids, expected {len(expected)}"]
    return []


def check_seed(
    rows: Sequence[frozenset[str]],
    features: Sequence[str],
    seed: int,
    top: int,
    answer: Sequence[tuple[int, float]],
) -> list[str]:
    """A seed answer is a top-k of the oracle affinities, ranked, within tolerance."""
    kept = frozenset(features)
    width = len(kept)
    own = rows[seed] & kept
    oracle = {
        i: pair_mi(len(own), len(row & kept), len(own & row), width)
        for i, row in enumerate(rows)
        if i != seed
    }
    problems: list[str] = []
    ids = [i for i, _ in answer]
    if len(ids) != min(top, len(oracle)) or len(set(ids)) != len(ids):
        problems.append(f"seed {seed}: {len(ids)} ids returned, expected {min(top, len(oracle))}")
    if any(i not in oracle for i in ids):
        return problems + [f"seed {seed}: answer holds the seed or an unknown id"]
    for i, value in answer:
        if abs(value - oracle[i]) > AFFINITY_TOL:
            problems.append(f"seed {seed}: affinity to {i} is {value!r}, oracle {oracle[i]!r}")
    for (i, a), (j, b) in zip(answer, answer[1:]):
        if a < b or (a == b and i > j):
            problems.append(f"seed {seed}: ids {i} and {j} out of rank order")
    if answer:
        floor = min(oracle[i] for i in ids)
        chosen = set(ids)
        missed = [i for i, v in oracle.items() if i not in chosen and v > floor + AFFINITY_TOL]
        if missed:
            problems.append(f"seed {seed}: {len(missed)} better objects left out, e.g. {missed[0]}")
    return problems


def check_encoding(corpus, gen) -> list[str]:
    """The parsed corpus holds the generated objects and features, in order."""
    features = gen.features
    if tuple(o.label for o in corpus.objects) != gen.labels:
        return ["object labels differ from the generated input"]
    if tuple(corpus.space.labels) != features:
        return [f"feature labels differ: {len(corpus.space)} parsed, {len(features)} generated"]
    kept = frozenset(features)
    for obj, row in zip(corpus.objects, gen.rows):
        if {features[f] for f in obj.present()} != row & kept:
            return [f"object {obj.label!r}: bits differ from the generated row"]
    return []


def check_clustering(engine, result, corpus, params, truth) -> list[str]:
    """End-of-run guarantees: partition, field validity, prototypes, zero rule misses.

    The prototype check recomputes each member's mean affinity to the
    others from the ground truth; the chosen best member must reach the
    category's maximum within tolerance.
    """
    problems: list[str] = []
    n = len(corpus)
    field = result.field
    seen = [i for cat in field.categories for i in cat.members] + list(field.unclustered)
    if sorted(seen) != list(range(n)):
        problems.append("categories and residue are not a partition of the objects")
    if field.categories and not engine.field_valid(field, corpus, params).ok:
        problems.append("field_valid reports a threshold violation")
    kept = frozenset(truth.features)
    rows = [row & kept for row in truth.rows]
    for pos, cat in enumerate(field.categories):
        mean = {
            i: math.fsum(
                pair_mi(len(rows[i]), len(rows[j]), len(rows[i] & rows[j]), len(kept))
                for j in cat.members if j != i
            ) / (len(cat.members) - 1)
            for i in cat.members
        }
        if cat.best_member not in mean or mean[cat.best_member] < max(mean.values()) - AFFINITY_TOL:
            problems.append(f"category {pos}: best member {cat.best_member} is not the prototype")
        if cat.rule is not None:
            misses = [
                i for i in cat.members
                if sum(corpus.objects[i].bits[f] for f in cat.rule.feature_set) < cat.rule.m
            ]
            if misses:
                problems.append(f"category {pos}: rule misses members {misses}")
    return problems
