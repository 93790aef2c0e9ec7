"""Category descriptions: m-of-n rules and the field report.

All functions are pure views over a finished field; a rule's counts
read the corpus's feature bitmaps. The report is a stable
line-oriented text whose structured twin (report_record) mirrors it
field for field; both use the original input labels throughout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .model import Category, ConceptField, Corpus, Parameters, PolymorphousRule

if TYPE_CHECKING:
    from .engine import FieldValidity, RunResult, TraceStep


def feature_frequencies(category: Category, corpus: Corpus) -> tuple[float, ...]:
    """In-category frequency of every feature, as fractions of the member count."""
    k = len(category.members)
    members = sum(1 << i for i in category.members)
    return tuple((bitmap & members).bit_count() / k for bitmap in corpus.feature_index)


def polymorphous_rule(
    category: Category, corpus: Corpus, alpha: float, clustered: Iterable[int]
) -> Optional[PolymorphousRule]:
    """Extract the category's at-least-m-of-n rule; None if it has none.

    The rule features are those with in-category frequency >= alpha,
    ordered by descending frequency then index; m is the smallest number
    of them any member possesses. With no feature at alpha the category
    has no rule. Sufficiency and the false alarm rate are judged against
    the clustered objects only, since unclustered residue sits outside
    the field of contrast. With no clustered non-members the false
    alarm rate is 0. ``Corpus.by_count`` groups the members and the
    clustered outsiders by their number of rule features, which gives m
    and the false alarms.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1]")
    freqs = feature_frequencies(category, corpus)
    feature_set = tuple(
        sorted((f for f in range(len(freqs)) if freqs[f] >= alpha),
               key=lambda f: (-freqs[f], f))
    )
    if not feature_set:
        return None
    bitmaps = corpus.feature_index
    members = sum(1 << i for i in category.members)
    outsiders = sum(1 << j for j in set(clustered).difference(category.members))
    groups = corpus.by_count(feature_set, members | outsiders)
    m = min(count for count, ids in groups if ids & members)
    necessary = tuple(f for f in range(len(freqs)) if freqs[f] == 1.0)
    sufficient = tuple(
        f for f, bitmap in enumerate(bitmaps) if bitmap & members and not bitmap & outsiders
    )
    alarms = sum((ids & outsiders).bit_count() for count, ids in groups if count >= m)
    rate = alarms / outsiders.bit_count() if outsiders else 0.0
    return PolymorphousRule(m, feature_set, necessary, sufficient, rate)


def describe_step(step: "TraceStep", corpus: Corpus) -> str:
    def names(ids: Sequence[int]) -> str:
        return ", ".join(corpus.objects[i].label for i in ids)

    if step.action == "protoseed":
        head = f"protoseed {{{names(step.objects)}}}"
    elif step.action == "add":
        head = f"add {names(step.objects)}"
    else:
        assert step.merged_from is not None
        i, j = step.merged_from
        head = f"merge categories {i + 1} + {j + 1}"
    return f"{head} -> category {step.category + 1} (cohesion {step.cohesion:.6f})"


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
