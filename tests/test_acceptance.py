"""Acceptance suite: one test per committed criterion.

Each test prints a single PASS/FAIL line. Criteria 2 and 3 sweep
thresholds over the two bundled corpora and check where the 2-of-3
shapes partition and a split of the abstracts stand under this
program's cohesion, the mean gated pairwise mutual information. Every
figure they assert comes from an oracle in this file that computes the
affinities from the corpus text, not from the program's encoding.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations, product
from typing import Callable, Iterable, Mapping

from conftest import (
    PairTable,
    best_member,
    bits_corpus,
    entropy,
    make_category,
    margin,
    misclassification,
    object_pair_table,
    transmission,
)
from polyclust import datasets, emit_json, run
from polyclust.engine import affinity_matrix, field_valid
from polyclust.information import gated_transmission, row_entropy
from polyclust.model import ConceptField, Corpus, Parameters
from polyclust.retrieval import PolymorphousQuery, retrieve

GRID = [round(0.05 * k, 2) for k in range(1, 20)]  # 0.05 .. 0.95


def _announce(number: int, description: str, check: Callable[[], None]) -> None:
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS  {description}")


def _oracle_entropy(counts) -> float:
    total = sum(counts)
    return math.fsum(-(c / total) * math.log2(c / total) for c in counts if c)


def _oracle_transmission(t: PairTable) -> float:
    """Mutual information in its KL form, summed cell by cell."""
    total = t.total
    rows = (t.n11 + t.n10, t.n01 + t.n00)
    cols = (t.n11 + t.n01, t.n10 + t.n00)
    terms = []
    for count, r, c in ((t.n11, 0, 0), (t.n10, 0, 1), (t.n01, 1, 0), (t.n00, 1, 1)):
        if count:
            p = count / total
            terms.append(p * math.log2(p / ((rows[r] / total) * (cols[c] / total))))
    return math.fsum(terms)


def _oracle_affinities(
    features: Mapping[str, frozenset],
) -> dict[frozenset[str], float]:
    """Gated mutual information of every label pair, from feature sets.

    A feature held by every object or by none is left out, as the
    encoding drops it. A pair that is not positively associated
    (n11 * n00 <= n10 * n01) has affinity zero.
    """
    n = len(features)
    universe = frozenset().union(*features.values())
    universe = frozenset(
        f for f in universe if sum(f in fs for fs in features.values()) < n
    )
    out: dict[frozenset[str], float] = {}
    for a, b in combinations(features, 2):
        left, right = features[a] & universe, features[b] & universe
        table = PairTable(
            len(left & right),
            len(left - right),
            len(right - left),
            len(universe - (left | right)),
        )
        positive = table.n11 * table.n00 > table.n10 * table.n01
        out[frozenset((a, b))] = _oracle_transmission(table) if positive else 0.0
    return out


def _oracle_mean(values: Iterable[float]) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


def _assert_matrix_matches(corpus: Corpus, oracle: Mapping[frozenset[str], float]) -> None:
    matrix = affinity_matrix(corpus)
    for a, b in combinations(corpus.objects, 2):
        expected = oracle[frozenset((a.label, b.label))]
        assert abs(matrix[a.id][b.id] - expected) <= 1e-9, (
            f"affinity {a.label}/{b.label}: matrix {matrix[a.id][b.id]!r}, "
            f"oracle {expected!r}"
        )


def test_criterion_1_metric_oracle_equivalence():
    """Transmission and entropy match brute-force evaluation on 200 random pairs."""

    def check() -> None:
        rng = random.Random(160493)
        started = time.perf_counter()
        for _ in range(200):
            width = rng.randint(1, 16)
            corpus = bits_corpus(
                [
                    "".join(str(rng.randint(0, 1)) for _ in range(width)),
                    "".join(str(rng.randint(0, 1)) for _ in range(width)),
                ]
            )
            a, b = corpus.objects
            table = object_pair_table(a, b)
            assert abs(transmission(table) - _oracle_transmission(table)) <= 1e-9
            gated = _oracle_transmission(table) if table.determinant > 0 else 0.0
            assert abs(gated_transmission(table.n11, a.ones, b.ones, width) - gated) <= 1e-9
            row = _oracle_entropy([a.ones, width - a.ones])
            assert abs(row_entropy(a.ones, width) - row) <= 1e-9
            counts = [rng.randint(0, 12) for _ in range(rng.randint(1, 6))]
            if sum(counts) == 0:
                counts[0] = 1
            assert abs(entropy(counts) - _oracle_entropy(counts)) <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"

    _announce(1, "metric oracle equivalence (200 pairs, 1e-9)", check)


def test_criterion_2_shapes_two_of_three_recovery():
    """Where the 2-of-3 partition of the shapes corpus stands on a sweep.

    Two shapes objects are positively associated only when they differ
    in one attribute, and every such pair has the largest affinity,
    0.081704 bits. The target categories {csb, csw, cab, qsb} and
    {caw, qsw, qab, qaw} each hold 3 such pairs of their 6, so their
    cohesion is 0.040852 bits; 6 of their 16 cross pairs give a margin
    of 0.010213 bits. The circular face {csb, csw, cab, caw} holds 4 of
    6, for cohesion 0.054469 and a margin of 0.034043 over the square
    face.

    The committed grid (0.05 to 0.95) lies above the largest affinity
    from 0.10 up, so the sweep runs on that grid divided by ten
    (0.005 to 0.095 bits) and checks:
    - field_valid accepts the hand-built 2-of-3 field exactly at
      cohesion <= 0.040852 and distinctiveness <= 0.010213: 16 points;
    - every run with cohesion <= 0.054469 opens with the three face
      actions: protoseed {csb, csw}, add cab, add caw. No action splits
      a category, so caw never leaves csb and the target cannot form;
    - every run with 0.054469 < cohesion <= 0.081704 opens with
      protoseed {csb, csw};
    - every run above 0.081704 ends with no category;
    - a run that ends on the 2-of-3 partition reports both rules.
    The figures come from the oracle over the CSV rows; the program's
    affinity matrix and the field's cohesions and margins agree with
    it to 1e-9.
    """

    def check() -> None:
        started = time.perf_counter()
        table = datasets.shapes_table()
        rows = {
            label: frozenset(zip(table.attributes, row))
            for label, row in zip(table.labels, table.rows)
        }
        oracle = _oracle_affinities(rows)

        def cohesion(labels: tuple[str, ...]) -> float:
            return _oracle_mean(oracle[frozenset(p)] for p in combinations(labels, 2))

        def cross(left: tuple[str, ...], right: tuple[str, ...]) -> float:
            return _oracle_mean(oracle[frozenset((a, b))] for a in left for b in right)

        left = ("csb", "csw", "cab", "qsb")
        right = ("caw", "qsw", "qab", "qaw")
        face = ("csb", "csw", "cab", "caw")
        top = max(oracle.values())
        cohesions = (cohesion(left), cohesion(right))
        margins = tuple(w - cross(left, right) for w in cohesions)
        target_cohesion, target_margin = min(cohesions), min(margins)
        face_cohesion = cohesion(face)
        face_margin = face_cohesion - cross(face, ("qsb", "qsw", "qab", "qaw"))
        figures = {
            "largest affinity": top,
            "2-of-3 cohesion": target_cohesion,
            "2-of-3 margin": target_margin,
            "face cohesion": face_cohesion,
            "face margin": face_margin,
        }
        assert {name: f"{v:.6f}" for name, v in figures.items()} == {
            "largest affinity": "0.081704",
            "2-of-3 cohesion": "0.040852",
            "2-of-3 margin": "0.010213",
            "face cohesion": "0.054469",
            "face margin": "0.034043",
        }, f"oracle figures moved: {figures}"
        assert top < GRID[1], (
            f"largest affinity {top:.6f} reaches the committed grid at {GRID[1]}"
        )

        corpus = datasets.shapes_corpus()
        _assert_matrix_matches(corpus, oracle)
        by_label = {obj.label: obj.id for obj in corpus.objects}
        target_field = ConceptField(
            tuple(
                make_category(corpus, [by_label[x] for x in side])
                for side in (left, right)
            ),
            (),
        )
        target = {frozenset(c.members) for c in target_field.categories}
        validity = field_valid(target_field, corpus, Parameters())
        for i in (0, 1):
            assert abs(validity.cohesions[i] - cohesions[i]) <= 1e-9, (
                f"2-of-3 cohesion {validity.cohesions[i]!r}, oracle {cohesions[i]!r}"
            )
            got = margin(validity.cohesions, validity.distinctiveness, i)
            assert abs(got - margins[i]) <= 1e-9, (
                f"2-of-3 margin {got!r}, oracle {margins[i]!r}"
            )
        face_actions = [
            ("protoseed", ("csb", "csw")),
            ("add", ("cab",)),
            ("add", ("caw",)),
        ]
        sweep = [g / 10 for g in GRID]  # 0.005 .. 0.095
        accepted: list[tuple[float, float]] = []
        for cohesion_min in sweep:
            for margin_min in sweep:
                params = Parameters(cohesion_min, margin_min)
                if field_valid(target_field, corpus, params).ok:
                    accepted.append((cohesion_min, margin_min))

                result = run(corpus, params)
                got = {frozenset(c.members) for c in result.field.categories}
                if got == target:
                    assert "at least 2 out of {circular, symmetric, black}" in result.report
                    assert "at least 2 out of {square, asymmetric, white}" in result.report
                actions = [
                    (step.action, tuple(corpus.objects[i].label for i in step.objects))
                    for step in result.trace
                ]
                at = f"cohesion {cohesion_min:g}, distinctiveness {margin_min:g}"
                if cohesion_min <= face_cohesion:
                    assert actions[:3] == face_actions, (
                        f"{at} is at or below the face cohesion "
                        f"{face_cohesion:.6f} but the run opens {actions[:3]}"
                    )
                elif cohesion_min <= top:
                    assert actions[:1] == face_actions[:1], (
                        f"{at} lies between the face cohesion {face_cohesion:.6f} "
                        f"and the largest affinity {top:.6f} but the run opens "
                        f"{actions[:1]}"
                    )
                else:
                    assert not result.field.categories, (
                        f"{at} is above the largest affinity {top:.6f} but the "
                        f"run ends with {sorted(sorted(s) for s in got)}"
                    )
        expected = [
            (c, d)
            for c in sweep
            for d in sweep
            if c <= target_cohesion and d <= target_margin
        ]
        assert accepted == expected and len(accepted) == 16, (
            f"field_valid accepts the 2-of-3 field at {accepted}; expected the 16 "
            f"points with cohesion <= {target_cohesion:.6f} and distinctiveness "
            f"<= {target_margin:.6f}"
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"

    _announce(
        2,
        "shapes 2-of-3 field valid only at 0.040852/0.010213; runs open on the face",
        check,
    )


def test_criterion_3_abstracts_three_categories():
    """Why no threshold splits the abstracts into three categories.

    With one indicator per keyword, only two pairs of abstracts are
    positively associated: {abstract 5, abstract 7} at 0.006645 bits
    (shared VISUAL STIMULATION) and {abstract 4, abstract 6} at
    0.000280 bits (shared VISUAL SEARCH). Abstracts 1 and 2 share no
    keyword. A category starts only from a positive pair, so no run at
    any threshold holds three categories. The test checks:
    - the oracle, built from the keyword sets of the parsed records,
      finds exactly those two positive pairs and no keyword shared by
      abstracts 1 and 2;
    - the program's affinity matrix agrees with it to 1e-9;
    - every run on the committed grid ends with no category, since
      both positive affinities lie below its 0.05 minimum;
    - on the grid divided by 100 and by 1000, which straddles both
      positive affinities, every run holds at most two categories and
      each contains one of the two positive pairs.
    """

    def check() -> None:
        started = time.perf_counter()
        keywords = {rec.label: frozenset(rec.keywords) for rec in datasets.abstracts_records()}
        oracle = _oracle_affinities(keywords)
        positive = {pair: a for pair, a in oracle.items() if a > 0.0}
        shown = {" & ".join(sorted(pair)): f"{a:.6f}" for pair, a in positive.items()}
        assert shown == {
            "abstract 5 & abstract 7": "0.006645",
            "abstract 4 & abstract 6": "0.000280",
        }, f"positive-affinity pairs moved: {shown}"
        shared = keywords["abstract 1"] & keywords["abstract 2"]
        assert not shared, f"abstracts 1 and 2 share keywords {sorted(shared)}"

        corpus = datasets.abstracts_corpus()
        _assert_matrix_matches(corpus, oracle)
        for cohesion_min in GRID:
            for margin_min in GRID:
                result = run(corpus, Parameters(cohesion_min, margin_min))
                assert not result.field.categories, (
                    f"cohesion {cohesion_min}, distinctiveness {margin_min} lies above "
                    f"both positive affinities {shown} but the run holds "
                    f"{len(result.field.categories)} categories"
                )

        sweep = [g / scale for scale in (100, 1000) for g in GRID]
        assert all(min(sweep) < a < max(sweep) for a in positive.values()), (
            f"sweep {min(sweep):g} .. {max(sweep):g} does not straddle {shown}"
        )
        for cohesion_min in sweep:
            for margin_min in sweep:
                result = run(corpus, Parameters(cohesion_min, margin_min))
                at = f"cohesion {cohesion_min:g}, distinctiveness {margin_min:g}"
                categories = [
                    {corpus.objects[i].label for i in cat.members}
                    for cat in result.field.categories
                ]
                assert len(categories) <= len(positive), (
                    f"{at}: {len(categories)} categories from "
                    f"{len(positive)} positive-affinity pairs"
                )
                for labels in categories:
                    assert any(pair <= labels for pair in positive), (
                        f"{at}: category {sorted(labels)} holds neither "
                        f"positive-affinity pair {shown}"
                    )
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.3f}s, limit 5s"

    _announce(
        3,
        "abstracts hold two positive pairs (0.006645, 0.000280); no run splits three ways",
        check,
    )


def test_criterion_4_end_of_run_guarantees():
    """Every finished field over 100 random corpora honors the run guarantees.

    Categories whose rule extraction found no feature at the drawn alpha
    carry no rule and are exempt from the zero-miss check; all other
    guarantees apply unconditionally.
    """

    def check() -> None:
        rng = random.Random(58210)
        started = time.perf_counter()
        runs_with_categories = 0
        rules_checked = 0
        for _ in range(100):
            n = rng.randint(1, 20)
            width = rng.randint(1, 12)
            density = rng.uniform(0.15, 0.85)
            corpus = bits_corpus(
                [
                    "".join("1" if rng.random() < density else "0" for _ in range(width))
                    for _ in range(n)
                ]
            )
            params = Parameters(
                cohesion_threshold=rng.uniform(0.0, 0.6),
                distinctiveness_threshold=rng.uniform(0.0, 0.4),
                rule_alpha=rng.uniform(0.2, 1.0),
            )

            def on_action(field, step):
                assert field.is_partition_of(n)  # (d) after every transition

            result = run(corpus, params, on_action=on_action)
            again = run(corpus, params)

            # (f) two runs are byte-identical
            assert result.report == again.report
            assert emit_json(result) == emit_json(again)
            # (e) termination bound
            assert len(result.trace) <= 2 * n
            # (d) final partition integrity
            assert result.field.is_partition_of(n)
            if result.field.categories:
                runs_with_categories += 1
                # (c) thresholds hold for every category and pair
                validity = field_valid(result.field, corpus, params)
                assert validity.ok
                for i, cat in enumerate(result.field.categories):
                    assert validity.cohesions[i] >= params.cohesion_threshold
                    least = margin(validity.cohesions, validity.distinctiveness, i)
                    if least is not None:
                        assert least >= params.distinctiveness_threshold
                    # (a) a best member inside the member set
                    assert cat.best_member in cat.members
                    assert cat.best_member == best_member(cat, corpus)
                    # (b) zero misses against the category's own rule
                    if cat.rule is not None:
                        rules_checked += 1
                        alarms, misses = misclassification(
                            cat.rule, cat, result.field, corpus
                        )
                        assert misses == 0
                        assert alarms >= 0
                        assert all(
                            corpus.objects[i].count(cat.rule.feature_set) >= cat.rule.m
                            for i in cat.members
                        )
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.3f}s, limit 60s"
        assert runs_with_categories >= 20, "suite failed to exercise clustered fields"
        assert rules_checked >= 20, "suite failed to exercise rule extraction"

    _announce(4, "end-of-run guarantees over 100 random corpora", check)


def test_criterion_5_retrieval_equivalence():
    """m-of-n matching equals its DNF expansion; the flagship query is exact."""

    def check() -> None:
        started = time.perf_counter()
        for n in range(1, 6):
            patterns = ["".join(map(str, bits)) for bits in product((0, 1), repeat=n)]
            corpus = bits_corpus(patterns, labels=[f"d{p}" for p in patterns])
            names = [f"f{i}" for i in range(n)]
            for m in range(1, n + 1):
                query = PolymorphousQuery.resolve(corpus, m, names)
                hits = set(retrieve(corpus, query))
                for obj in corpus.objects:
                    dnf = any(
                        all(obj.bits[f] for f in combo)
                        for combo in combinations(range(n), m)
                    )
                    assert (obj.id in hits) == dnf
        abstracts = datasets.abstracts_corpus()
        query = PolymorphousQuery.resolve(abstracts, 1, ("VISUAL SEARCH",))
        labels = {abstracts.objects[i].label for i in retrieve(abstracts, query)}
        assert labels == {"abstract 4", "abstract 6"}
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"

    _announce(5, "retrieval equals DNF expansion; VISUAL SEARCH is exact", check)


def test_criterion_6_parser_fidelity():
    """The bundled refer corpus parses to 7 records with the committed counts."""

    def check() -> None:
        started = time.perf_counter()
        records = datasets.abstracts_records()
        assert len(records) == 7
        counts = {rec.label: len(rec.keywords) for rec in records}
        assert counts == {
            "abstract 1": 7,
            "abstract 2": 2,
            "abstract 3": 8,
            "abstract 4": 5,
            "abstract 5": 4,
            "abstract 6": 6,
            "abstract 7": 5,
        }
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"

    _announce(6, "refer parser yields 7 records with keyword counts 7,2,8,5,4,6,5", check)
