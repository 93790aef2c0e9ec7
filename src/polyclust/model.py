"""Data model for polymorphous concept formation.

Every type here is immutable once constructed. New states are built by
constructing new values, never by mutation, so corpora, categories, and
whole concept fields are safe to share, cache, and compare across runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional


class CorpusError(ValueError):
    """Input data violates a corpus invariant."""


class ParameterError(ValueError):
    """A clustering parameter is outside its allowed range."""


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered binary features, each an (attribute, value) pair.

    Multi-valued attributes are represented one-hot, one feature per
    observed value. Keyword data uses the keyword as both attribute and
    value. Iteration order is the input order and never changes.
    """

    features: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.features:
            raise CorpusError("feature space is empty")
        seen: set[tuple[str, str]] = set()
        for attr, value in self.features:
            if (attr, value) in seen:
                raise CorpusError(f"duplicate feature ({attr!r}, {value!r})")
            seen.add((attr, value))

    def __len__(self) -> int:
        return len(self.features)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Display label per feature: the bare value wherever that is unambiguous."""
        value_counts = Counter(v for _, v in self.features)
        out: list[str] = []
        for attr, value in self.features:
            if attr == value:
                out.append(attr)
            elif value_counts[value] == 1:
                out.append(value)
            else:
                out.append(f"{attr}={value}")
        if len(set(out)) != len(out):
            dup = {lab for lab, k in Counter(out).items() if k > 1}
            out = [
                f"{attr}={value}" if lab in dup else lab
                for (attr, value), lab in zip(self.features, out)
            ]
        return tuple(out)

    @cached_property
    def _resolution(self) -> dict[str, int]:
        table: dict[str, int] = {}
        for idx, lab in enumerate(self.labels):
            table[lab] = idx
        for idx, (attr, value) in enumerate(self.features):
            table.setdefault(f"{attr}={value}", idx)
        attr_counts = Counter(a for a, _ in self.features)
        for idx, (attr, _) in enumerate(self.features):
            if attr_counts[attr] == 1:
                table.setdefault(attr, idx)
        value_counts = Counter(v for _, v in self.features)
        for idx, (_, value) in enumerate(self.features):
            if value_counts[value] == 1:
                table.setdefault(value, idx)
        return table

    @cached_property
    def _resolution_folded(self) -> dict[str, Optional[int]]:
        folded: dict[str, Optional[int]] = {}
        for key, idx in self._resolution.items():
            low = key.lower()
            if low in folded and folded[low] != idx:
                folded[low] = None  # ambiguous under case folding
            else:
                folded[low] = idx
        return folded

    def index_of(self, label: str) -> int:
        """Resolve a display label, an attribute=value form, or a unique bare name."""
        hit = self._resolution.get(label)
        if hit is None:
            hit = self._resolution_folded.get(label.lower())
        if hit is None:
            raise CorpusError(f"unknown feature label {label!r}")
        return hit

    def attribute_blocks(self) -> dict[str, list[int]]:
        """Feature indices grouped by attribute, in first-appearance order."""
        blocks: dict[str, list[int]] = {}
        for idx, (attr, _) in enumerate(self.features):
            blocks.setdefault(attr, []).append(idx)
        return blocks


@dataclass(frozen=True)
class ObjectInstance:
    """One entity: a dense id, a unique label, and a binary indicator vector."""

    id: int
    label: str
    bits: tuple[int, ...]

    def present(self) -> tuple[int, ...]:
        return tuple(f for f, b in enumerate(self.bits) if b)

    @property
    def ones(self) -> int:
        return sum(self.bits)


@dataclass(frozen=True)
class Corpus:
    """A feature space plus the ordered objects defined on it."""

    space: FeatureSpace
    objects: tuple[ObjectInstance, ...]

    def __len__(self) -> int:
        return len(self.objects)

    @cached_property
    def _by_label(self) -> dict[str, int]:
        return {obj.label: obj.id for obj in self.objects}

    def object_by_label(self, label: str) -> ObjectInstance:
        idx = self._by_label.get(label)
        if idx is None:
            raise CorpusError(f"unknown object label {label!r}")
        return self.objects[idx]


_BINARY = frozenset((0, 1))


def _is_binary(bits: tuple[int, ...]) -> bool:
    try:
        return _BINARY.issuperset(bits)
    except TypeError:  # an unhashable bit; the walk below names it
        return False


def validate_corpus(corpus: Corpus) -> tuple[Corpus, list[str]]:
    """Check corpus invariants; return the corpus and a list of warnings.

    Errors (raised as CorpusError) name the first offending object, in
    input order, and what is wrong with it: a non-dense id, a duplicate
    label, a row of the wrong width, or a bit other than 0 or 1.
    Features constant across all objects are flagged in the warning list
    but never removed. Rows are checked whole with a set test and
    columns summed lazily; an object's bits are walked one by one only
    to name its first bad bit, so the check is linear in the cells.
    """
    objs = corpus.objects
    if not objs:
        raise CorpusError("empty corpus")
    width = len(corpus.space)
    seen_labels: dict[str, int] = {}
    for pos, obj in enumerate(objs):
        if obj.id != pos:
            raise CorpusError(
                f"object ids must be dense input-order integers; "
                f"object {obj.label!r} has id {obj.id}, expected {pos}"
            )
        if obj.label in seen_labels:
            raise CorpusError(
                f"duplicate label {obj.label!r} (objects {seen_labels[obj.label]} and {pos})"
            )
        seen_labels[obj.label] = pos
        if len(obj.bits) != width:
            raise CorpusError(
                f"object {obj.label!r}: expected {width} bits, got {len(obj.bits)}"
            )
        if not _is_binary(obj.bits):
            for f, b in enumerate(obj.bits):
                if b not in (0, 1):
                    raise CorpusError(
                        f"object {obj.label!r}: bit {f} is {b!r}, expected 0 or 1"
                    )
    warnings: list[str] = []
    n = len(objs)
    if n >= 2:
        first = objs[0].bits
        column_sums = map(sum, zip(*(obj.bits for obj in objs)))
        for f, total in enumerate(column_sums):
            if total == 0 or total == n:
                label = corpus.space.labels[f]
                warnings.append(f"feature {f} constant ({label!r} is {first[f]} in every object)")
    return corpus, warnings


@dataclass(frozen=True)
class Parameters:
    """Clustering thresholds, all on the [0, 1] bit scale.

    cohesion_threshold: minimum within-category mean affinity.
    distinctiveness_threshold: minimum margin of a category's cohesion
        over its mean affinity to every other category.
    rule_alpha: minimum in-category feature frequency for a feature to
        enter the category's m-of-n rule.
    """

    cohesion_threshold: float = 0.4
    distinctiveness_threshold: float = 0.2
    rule_alpha: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.cohesion_threshold <= 1.0:
            raise ParameterError(
                f"cohesion_threshold {self.cohesion_threshold} outside [0, 1]"
            )
        if not 0.0 <= self.distinctiveness_threshold <= 1.0:
            raise ParameterError(
                f"distinctiveness_threshold {self.distinctiveness_threshold} outside [0, 1]"
            )
        if not 0.0 < self.rule_alpha <= 1.0:
            raise ParameterError(f"rule_alpha {self.rule_alpha} outside (0, 1]")


@dataclass(frozen=True)
class PolymorphousRule:
    """An "at least m of these n features" membership rule.

    The rule is genuinely polymorphous when m < n. necessary holds the
    feature indices every member possesses; sufficient holds those that
    occur in no clustered non-member.
    """

    m: int
    feature_set: tuple[int, ...]
    necessary: tuple[int, ...]
    sufficient: tuple[int, ...]
    false_alarm_rate: float

    def __post_init__(self) -> None:
        if not self.feature_set:
            raise ValueError("empty rule feature set")
        if not 0 <= self.m <= len(self.feature_set):
            raise ValueError(f"m={self.m} outside [0, {len(self.feature_set)}]")

    @property
    def n(self) -> int:
        return len(self.feature_set)

    @property
    def polymorphous(self) -> bool:
        return self.m < self.n

    def satisfied_by(self, obj: ObjectInstance) -> bool:
        return sum(obj.bits[f] for f in self.feature_set) >= self.m


@dataclass(frozen=True)
class Category:
    """A category: sorted member ids, cached cohesion, prototype, and rule."""

    members: tuple[int, ...]
    cohesion: float
    best_member: int
    rule: Optional[PolymorphousRule] = None

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a category needs at least 2 members")
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError("members must be sorted unique ids")
        if self.best_member not in self.members:
            raise ValueError(f"best_member {self.best_member} outside the member set")

    def __contains__(self, object_id: int) -> bool:
        return object_id in self.members

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ConceptField:
    """The full clustering state: categories plus the unclustered residue."""

    categories: tuple[Category, ...]
    unclustered: tuple[int, ...]

    @staticmethod
    def initial(n: int) -> "ConceptField":
        return ConceptField((), tuple(range(n)))

    def clustered(self) -> tuple[int, ...]:
        ids: list[int] = []
        for cat in self.categories:
            ids.extend(cat.members)
        return tuple(sorted(ids))

    def is_partition_of(self, n: int) -> bool:
        ids = list(self.clustered()) + list(self.unclustered)
        return len(ids) == len(set(ids)) and set(ids) == set(range(n))

