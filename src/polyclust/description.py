"""Category descriptions: m-of-n rules and the field report.

All functions are pure views over a finished field. The report is a
stable line-oriented text whose structured twin (report_record) mirrors
it field for field; both use the original input labels throughout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .model import Category, ConceptField, Corpus, Parameters, PolymorphousRule

if TYPE_CHECKING:
    from .engine import FieldValidity, RunResult, TraceStep


class NoRuleFeatures(ValueError):
    """No feature reaches the requested in-category frequency."""


def feature_frequencies(category: Category, corpus: Corpus) -> tuple[float, ...]:
    """In-category frequency of every feature, as fractions of the member count."""
    k = len(category.members)
    width = len(corpus.space)
    return tuple(
        sum(corpus.objects[i].bits[f] for i in category.members) / k
        for f in range(width)
    )


def polymorphous_rule(
    category: Category,
    corpus: Corpus,
    alpha: float = 0.5,
    *,
    clustered: Optional[Iterable[int]] = None,
) -> PolymorphousRule:
    """Extract the category's at-least-m-of-n rule.

    The rule features are those with in-category frequency >= alpha,
    ordered by descending frequency then index; m is the smallest number
    of them any member possesses. Sufficiency and the false alarm rate
    are judged against clustered objects only (all objects when
    clustered is None), since unclustered residue sits outside the
    field of contrast. With no clustered non-members the false alarm
    rate is 0.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1]")
    freqs = feature_frequencies(category, corpus)
    feature_set = tuple(
        sorted((f for f in range(len(freqs)) if freqs[f] >= alpha),
               key=lambda f: (-freqs[f], f))
    )
    if not feature_set:
        raise NoRuleFeatures(
            f"no rule features: alpha {alpha} exceeds every in-category frequency"
        )
    m = min(
        sum(corpus.objects[i].bits[f] for f in feature_set) for i in category.members
    )
    necessary = tuple(f for f in range(len(freqs)) if freqs[f] == 1.0)
    if clustered is None:
        universe = set(range(len(corpus)))
    else:
        universe = set(clustered)
    outside = sorted(universe - set(category.members))
    present = [f for f in range(len(freqs)) if freqs[f] > 0.0]
    sufficient = tuple(
        f for f in present
        if all(corpus.objects[o].bits[f] == 0 for o in outside)
    )
    alarms = sum(
        1 for o in outside
        if sum(corpus.objects[o].bits[f] for f in feature_set) >= m
    )
    rate = alarms / len(outside) if outside else 0.0
    return PolymorphousRule(m, feature_set, necessary, sufficient, rate)


def misclassification(
    rule: PolymorphousRule, category: Category, field: ConceptField, corpus: Corpus
) -> tuple[int, int]:
    """(false alarms, misses) of a category's rule against the clustered objects.

    Misses are asserted to be zero: the rule's m is the minimum feature
    count over the members it was extracted from.
    """
    members = set(category.members)
    outside = [i for i in field.clustered() if i not in members]
    false_alarms = sum(1 for i in outside if rule.satisfied_by(corpus.objects[i]))
    misses = sum(
        1 for i in category.members if not rule.satisfied_by(corpus.objects[i])
    )
    assert misses == 0, f"rule misses {misses} of its own members"
    return false_alarms, misses


def describe_step(step: "TraceStep", corpus: Corpus) -> str:
    def names(ids: Sequence[int]) -> str:
        return ", ".join(corpus.objects[i].label for i in ids)

    if step.action == "protoseed":
        return (
            f"protoseed {{{names(step.objects)}}} -> category {step.category + 1} "
            f"(cohesion {step.cohesion:.6f})"
        )
    if step.action == "add":
        return (
            f"add {names(step.objects)} -> category {step.category + 1} "
            f"(cohesion {step.cohesion:.6f})"
        )
    assert step.merged_from is not None
    i, j = step.merged_from
    return (
        f"merge categories {i + 1} + {j + 1} -> category {step.category + 1} "
        f"(cohesion {step.cohesion:.6f})"
    )


def render_report(
    field: ConceptField,
    corpus: Corpus,
    validity: "FieldValidity",
    trace: Sequence["TraceStep"],
    params: Parameters,
) -> str:
    """Render the field as stable, line-oriented text over the input labels."""
    labels = corpus.space.labels
    n = len(corpus)
    lines: list[str] = []
    if not field.categories:
        lines.append(f"no categories formed; {n} objects unclustered")
    else:
        noun = "category" if len(field.categories) == 1 else "categories"
        lines.append(
            f"concept field: {len(field.categories)} {noun}, "
            f"{len(field.unclustered)} of {n} objects unclustered"
        )
    lines.append(
        f"parameters: cohesion >= {params.cohesion_threshold:.6f}, "
        f"distinctiveness >= {params.distinctiveness_threshold:.6f}, "
        f"alpha = {params.rule_alpha:.6f}"
    )
    for idx, cat in enumerate(field.categories):
        lines.append("")
        lines.append(
            f"category {idx + 1}: {cat.size} members, "
            f"cohesion {validity.cohesions[idx]:.6f} bits"
        )
        lines.append("  members: " + ", ".join(corpus.objects[i].label for i in cat.members))
        lines.append(f"  best member: {corpus.objects[cat.best_member].label}")
        if cat.rule is None:
            lines.append(
                f"  rule: none (no feature reaches frequency {params.rule_alpha:.6f})"
            )
        else:
            rule = cat.rule
            listed = ", ".join(labels[f] for f in rule.feature_set)
            lines.append(f"  rule: at least {rule.m} out of {{{listed}}}")
            if rule.necessary:
                lines.append("  necessary: " + ", ".join(labels[f] for f in rule.necessary))
            if rule.sufficient:
                lines.append("  sufficient: " + ", ".join(labels[f] for f in rule.sufficient))
            lines.append(f"  false alarm rate: {rule.false_alarm_rate:.6f}")
        margins = [
            f"vs category {j + 1}: "
            f"{validity.cohesions[idx] - validity.distinctiveness[idx][j]:.6f}"
            for j in range(len(field.categories))
            if j != idx
        ]
        if margins:
            lines.append("  margins (bits): " + "; ".join(margins))
    if field.unclustered:
        lines.append("")
        lines.append(
            "unclustered: " + ", ".join(corpus.objects[i].label for i in field.unclustered)
        )
    lines.append("")
    lines.append(f"trace: {len(trace)} accepted actions")
    for step_number, step in enumerate(trace, 1):
        lines.append(f"  {step_number}. {describe_step(step, corpus)}")
    return "\n".join(lines) + "\n"


def _sig9(x: float) -> float:
    return float(f"{x:.9g}")


def report_record(result: "RunResult") -> dict:
    """Structured twin of the report, with floats rounded to 9 significant digits."""
    corpus = result.corpus
    labels = corpus.space.labels
    categories = []
    for cat in result.field.categories:
        rule_record = None
        if cat.rule is not None:
            rule_record = {
                "m": cat.rule.m,
                "features": [labels[f] for f in cat.rule.feature_set],
                "necessary": [labels[f] for f in cat.rule.necessary],
                "sufficient": [labels[f] for f in cat.rule.sufficient],
                "false_alarm_rate": _sig9(cat.rule.false_alarm_rate),
            }
        categories.append(
            {
                "members": [corpus.objects[i].label for i in cat.members],
                "best_member": corpus.objects[cat.best_member].label,
                "rule": rule_record,
                "cohesion_bits": _sig9(cat.cohesion),
            }
        )
    trace = []
    for step in result.trace:
        trace.append(
            {
                "action": step.action,
                "objects": [corpus.objects[i].label for i in step.objects],
                "category": step.category,
                "merged_from": list(step.merged_from) if step.merged_from else None,
                "cohesion_bits": _sig9(step.cohesion),
            }
        )
    return {
        "parameters": {
            "cohesion_threshold": _sig9(result.params.cohesion_threshold),
            "distinctiveness_threshold": _sig9(result.params.distinctiveness_threshold),
            "rule_alpha": _sig9(result.params.rule_alpha),
        },
        "categories": categories,
        "distinctiveness": [
            [_sig9(v) for v in row] for row in result.validity.distinctiveness
        ],
        "unclustered": [corpus.objects[i].label for i in result.field.unclustered],
        "trace": trace,
    }
