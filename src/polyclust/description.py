"""Category descriptions: m-of-n rules and the field report.

All functions are pure views over a finished field; a rule's counts
read the corpus's feature bitmaps. The report is a stable
line-oriented text and its structured twin (report_record), both
formatted from one record, ``_record``: the input labels, and each
category's cohesion and cross affinities from the run's validity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

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


def _exact(x: float) -> float:
    return x


def _sig9(x: float) -> float:
    return float(f"{x:.9g}")


def _step_record(step: "TraceStep", corpus: Corpus, number: Callable[[float], float]) -> dict:
    return {
        "action": step.action,
        "objects": [corpus.objects[i].label for i in step.objects],
        "category": step.category,
        "merged_from": list(step.merged_from) if step.merged_from else None,
        "cohesion_bits": number(step.cohesion),
    }


def _record(
    field: ConceptField,
    corpus: Corpus,
    validity: "FieldValidity",
    trace: Sequence["TraceStep"],
    params: Parameters,
    number: Callable[[float], float],
) -> dict:
    """The report's content: every label resolved, every float passed through number."""
    labels = corpus.space.labels

    def rule_record(rule: Optional[PolymorphousRule]) -> Optional[dict]:
        return None if rule is None else {
            "m": rule.m,
            "features": [labels[f] for f in rule.feature_set],
            "necessary": [labels[f] for f in rule.necessary],
            "sufficient": [labels[f] for f in rule.sufficient],
            "false_alarm_rate": number(rule.false_alarm_rate),
        }

    return {
        "parameters": {
            "cohesion_threshold": number(params.cohesion_threshold),
            "distinctiveness_threshold": number(params.distinctiveness_threshold),
            "rule_alpha": number(params.rule_alpha),
        },
        "categories": [
            {
                "members": [corpus.objects[i].label for i in cat.members],
                "best_member": corpus.objects[cat.best_member].label,
                "rule": rule_record(cat.rule),
                "cohesion_bits": number(cohesion),
            }
            for cat, cohesion in zip(field.categories, validity.cohesions, strict=True)
        ],
        "distinctiveness": [[number(v) for v in row] for row in validity.distinctiveness],
        "unclustered": [corpus.objects[i].label for i in field.unclustered],
        "trace": [_step_record(step, corpus, number) for step in trace],
    }


def _step_line(step: dict) -> str:
    objects = ", ".join(step["objects"])
    if step["action"] == "protoseed":
        head = f"protoseed {{{objects}}}"
    elif step["action"] == "add":
        head = f"add {objects}"
    else:
        i, j = step["merged_from"]
        head = f"merge categories {i + 1} + {j + 1}"
    return f"{head} -> category {step['category'] + 1} (cohesion {step['cohesion_bits']:.6f})"


def describe_step(step: "TraceStep", corpus: Corpus) -> str:
    return _step_line(_step_record(step, corpus, _exact))


def render_report(
    field: ConceptField,
    corpus: Corpus,
    validity: "FieldValidity",
    trace: Sequence["TraceStep"],
    params: Parameters,
) -> str:
    """Render the field as stable, line-oriented text, every float unrounded at .6f."""
    record = _record(field, corpus, validity, trace, params, _exact)
    categories, unclustered = record["categories"], record["unclustered"]
    given, n = record["parameters"], len(corpus)
    alpha = given["rule_alpha"]
    if categories:
        noun = "category" if len(categories) == 1 else "categories"
        lines = [
            f"concept field: {len(categories)} {noun}, "
            f"{len(unclustered)} of {n} objects unclustered"
        ]
    else:
        lines = [f"no categories formed; {n} objects unclustered"]
    lines.append(
        f"parameters: cohesion >= {given['cohesion_threshold']:.6f}, "
        f"distinctiveness >= {given['distinctiveness_threshold']:.6f}, "
        f"alpha = {alpha:.6f}"
    )
    for idx, (cat, row) in enumerate(zip(categories, record["distinctiveness"])):
        cohesion, rule = cat["cohesion_bits"], cat["rule"]
        lines += [
            "",
            f"category {idx + 1}: {len(cat['members'])} members, cohesion {cohesion:.6f} bits",
            "  members: " + ", ".join(cat["members"]),
            f"  best member: {cat['best_member']}",
        ]
        if rule is None:
            lines.append(f"  rule: none (no feature reaches frequency {alpha:.6f})")
        else:
            lines.append(f"  rule: at least {rule['m']} out of {{{', '.join(rule['features'])}}}")
            lines += [f"  {kind}: " + ", ".join(rule[kind])
                      for kind in ("necessary", "sufficient") if rule[kind]]
            lines.append(f"  false alarm rate: {rule['false_alarm_rate']:.6f}")
        margins = [f"vs category {j + 1}: {cohesion - cross:.6f}"
                   for j, cross in enumerate(row) if j != idx]
        if margins:
            lines.append("  margins (bits): " + "; ".join(margins))
    if unclustered:
        lines += ["", "unclustered: " + ", ".join(unclustered)]
    lines += ["", f"trace: {len(record['trace'])} accepted actions"]
    lines += [f"  {k}. {_step_line(step)}" for k, step in enumerate(record["trace"], 1)]
    return "\n".join(lines) + "\n"


def report_record(result: "RunResult") -> dict:
    """Structured twin of the report, with floats rounded to 9 significant digits."""
    return _record(
        result.field, result.corpus, result.validity, result.trace, result.params, _sig9
    )
