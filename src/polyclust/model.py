"""Data model for polymorphous concept formation.

Every type here is immutable once constructed: new states are new
values, so corpora, categories and fields are safe to share, cache and
compare. A corpus caches only its indices; every table score lives in
the kernel's one memo, held for the process, ``information.table_score``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from .retrieval import PolymorphousQuery


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
        """Display label per feature: the bare value wherever that is unambiguous.

        Labels that collide are qualified to ``attribute=value``, again
        until no label changes, since a qualified label can collide with
        another. Two features whose ``attribute=value`` forms coincide keep
        one shared label, which ``index_of`` rejects as ambiguous.
        """
        value_counts = Counter(v for _, v in self.features)
        out: list[str] = []
        for attr, value in self.features:
            if attr == value:
                out.append(attr)
            elif value_counts[value] == 1:
                out.append(value)
            else:
                out.append(f"{attr}={value}")
        while len(set(out)) != len(out):
            dup = {lab for lab, k in Counter(out).items() if k > 1}
            qualified = [
                f"{attr}={value}" if lab in dup else lab
                for (attr, value), lab in zip(self.features, out)
            ]
            if qualified == out:
                break
            out = qualified
        return tuple(out)

    @cached_property
    def _names(self) -> dict[str, list[int]]:
        """Each exact name's features: tier 1 the display labels, tier 2 the other forms.

        A feature's other forms are ``attribute=value`` and its attribute
        and value where no other feature has them; a display label hides them.
        """
        attrs = Counter(a for a, _ in self.features)
        values = Counter(v for _, v in self.features)
        forms = [(f"{a}={v}", idx) for idx, (a, v) in enumerate(self.features)]
        forms += [(a, idx) for idx, (a, _) in enumerate(self.features) if attrs[a] == 1]
        forms += [(v, idx) for idx, (_, v) in enumerate(self.features) if values[v] == 1]
        return _name_table(forms) | _name_table(zip(self.labels, range(len(self))))

    @cached_property
    def _names_folded(self) -> dict[str, list[int]]:
        return _name_table((name.lower(), i) for name, ids in self._names.items() for i in ids)

    def index_of(self, label: str) -> int:
        """Resolve a feature name at the first tier where any feature answers to it.

        The tiers are the display labels, the other forms (``_names``) and
        every name up to case, a table built only on an exact miss. A name
        two features share in its tier is ambiguous; the error lists them
        by id, each by its display label, or by its ``(attribute, value)``
        pair where another match has the same label.
        """
        hits = self._names.get(label) or self._names_folded.get(label.lower(), [])
        if len(hits) > 1:
            labels = Counter(self.labels[i] for i in hits)
            matches = ", ".join(
                repr(self.features[i] if labels[self.labels[i]] > 1 else self.labels[i])
                for i in sorted(hits)
            )
            raise CorpusError(f"ambiguous feature label {label!r}: matches {matches}")
        if not hits:
            raise CorpusError(f"unknown feature label {label!r}")
        return hits[0]


def _name_table(names: Iterable[tuple[str, int]]) -> dict[str, list[int]]:
    table: dict[str, list[int]] = {}
    for name, idx in names:
        hits = table.setdefault(name, [])
        if idx not in hits:
            hits.append(idx)
    return table


@dataclass(frozen=True)
class ObjectInstance:
    """One entity: a dense id, a unique label, and a binary indicator vector.

    bits is stored as `bytes`, one 0/1 byte per feature, whatever the
    caller passes: a row of 0/1 values (ints, bools, `1.0`) is
    converted on construction, so every count is an int. A row with any
    other value is kept as given, for ``Corpus`` to name.
    """

    id: int
    label: str
    bits: Sequence[int]

    def __post_init__(self) -> None:
        if not isinstance(self.bits, bytes) and _is_binary(self.bits):
            object.__setattr__(self, "bits", bytes(map(int, self.bits)))

    def present(self) -> tuple[int, ...]:
        """The features the object has, ascending. Reads a valid row: `bytes` of 0/1."""
        row = self.bits
        out = []
        f = row.find(1)
        while f >= 0:
            out.append(f)
            f = row.find(1, f + 1)
        return tuple(out)

    @property
    def ones(self) -> int:
        """The object's number of features, counted in C. Reads a valid row: `bytes` of 0/1."""
        return self.bits.count(1)

    def count(self, features: Iterable[int]) -> int:
        """How many of the given features the object has, as rule queries count it."""
        return sum(map(self.bits.__getitem__, features))


@dataclass(frozen=True)
class Corpus:
    """A feature space plus the ordered objects defined on it, checked when built.

    Construction raises CorpusError naming the first offending object, in
    input order, and what is wrong with it: a non-dense id, a duplicate
    label, a row of the wrong width, or a bit other than 0 or 1. A row is
    checked whole, in C: it is valid exactly when it is `bytes` and
    deleting every 0 and 1 byte leaves nothing. Only a row that fails
    this check, such as one kept as given by ``ObjectInstance``, is
    walked bit by bit, to name its first bad bit.
    """

    space: FeatureSpace
    objects: tuple[ObjectInstance, ...]

    def __post_init__(self) -> None:
        objs = self.objects
        if not objs:
            raise CorpusError("empty corpus")
        width = len(self.space)
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
            row = obj.bits
            if not isinstance(row, bytes) or row.translate(None, b"\x00\x01"):
                for f, b in enumerate(row):
                    if b not in (0, 1):
                        raise CorpusError(
                            f"object {obj.label!r}: bit {f} is {b!r}, expected 0 or 1"
                        )

    def __len__(self) -> int:
        return len(self.objects)

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        """One warning per feature constant across two or more objects, computed when read.

        Such features are flagged but never removed. A feature is
        constant when its bitmap in ``feature_index`` is 0 or holds every
        object.
        """
        n = len(self.objects)
        if n < 2:
            return ()
        every = (1 << n) - 1
        return tuple(
            f"feature {f} constant ({label!r} is {bitmap & 1} in every object)"
            for f, (label, bitmap) in enumerate(zip(self.space.labels, self.feature_index))
            if bitmap in (0, every)
        )

    @cached_property
    def feature_index(self) -> tuple[int, ...]:
        """One int bitmap per feature, with bit j set when object j (id j) has it; cached.

        One pass over the rows, highest id first, ORs each object's bit
        into the bitmaps of its ``present`` features. They retain about
        n·F/8 bytes.
        """
        bitmaps = [0] * len(self.space)
        bit = 1 << len(self.objects)
        # Highest id first: a bitmap has its final width from its first OR,
        # so each OR frees an int of the size it allocates. In id order, the
        # freed ints of every width pin memory that later allocations can't reuse.
        for obj in reversed(self.objects):
            bit >>= 1
            for f in obj.present():
                bitmaps[f] |= bit
        return tuple(bitmaps)

    @cached_property
    def size_groups(self) -> tuple[tuple[int, int], ...]:
        """``by_count`` of every feature among every object: ``(size, ids)`` groups; cached."""
        return tuple(self.by_count(range(len(self.space)), (1 << len(self.objects)) - 1))

    def by_count(self, features: Iterable[int], among: int) -> list[tuple[int, int]]:
        """The objects of bitmap ``among`` as ``(count, ids)`` groups, highest count first.

        ``count`` is how many of ``features`` an object has; each ``ids``
        is a non-empty bitmap, and the objects with count 0 come last. A
        bit-sliced counter (O'Neil & Quass, SIGMOD 1997) adds the
        features' bitmaps with a ripple carry (``^`` for the sum, ``&``
        for the carry): plane b holds bit b of every object's count, so
        no loop runs over objects. Walking the planes from the top splits
        ``among`` into its groups.
        """
        bitmaps = self.feature_index
        planes: list[int] = []  # plane b: bit b of every object's count
        for f in features:
            carry = bitmaps[f]
            for b, plane in enumerate(planes):
                planes[b] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
        groups = [(0, among)] if among else []
        for b in reversed(range(len(planes))):
            plane, split = planes[b], []
            for count, ids in groups:
                high = ids & plane
                if high:
                    split.append((count | 1 << b, high))
                if high != ids:
                    split.append((count, ids ^ high))
            groups = split
        return groups

    def object_by_label(self, label: str) -> ObjectInstance:
        for obj in self.objects:
            if obj.label == label:
                return obj
        raise CorpusError(f"unknown object label {label!r}")


_BINARY = frozenset((0, 1))


def _is_binary(bits: Sequence[int]) -> bool:
    try:
        return _BINARY.issuperset(bits)
    except TypeError:  # an unhashable bit; the walk below names it
        return False


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


def as_int(value: int, name: str) -> int:
    """value read through ``operator.index``; a bool or a non-integer raises TypeError naming it."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an int, not {value!r}")
    return index(value)


def check_m_of_n(form: PolymorphousRule | PolymorphousQuery, least: int) -> None:
    """Keep m and the ids as ints; ValueError unless the ids are distinct, >= 0, least <= m <= n."""
    m, features = form.m, form.feature_set
    if type(m) is not int or not all(type(f) is int for f in features):
        m, features = as_int(m, "m"), tuple(as_int(f, "a feature index") for f in features)
        object.__setattr__(form, "m", m)
        object.__setattr__(form, "feature_set", features)
    if not features:
        raise ValueError("an m-of-n rule needs at least one feature label")
    if min(features) < 0 or len(set(features)) < len(features):
        raise ValueError(f"feature indices {features} are not distinct and non-negative")
    if not least <= m <= len(features):
        raise ValueError(f"m={m} outside [{least}, {len(features)}]")


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
        check_m_of_n(self, 0)

    @property
    def n(self) -> int:
        return len(self.feature_set)

    @property
    def polymorphous(self) -> bool:
        return self.m < self.n


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

