"""Data model for polymorphous concept formation.

Every type here is immutable once constructed. New states are built by
constructing new values, never by mutation, so corpora, categories, and
whole concept fields are safe to share, cache, and compare across runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence


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
    def _resolution_folded(self) -> dict[str, list[int]]:
        folded: dict[str, list[int]] = {}
        for key, idx in self._resolution.items():
            hits = folded.setdefault(key.lower(), [])
            if idx not in hits:
                hits.append(idx)
        return folded

    def index_of(self, label: str) -> int:
        """Resolve a display label, an attribute=value form, or a name unique up to case."""
        hit = self._resolution.get(label)
        if hit is not None:
            return hit
        hits = self._resolution_folded.get(label.lower(), [])
        if len(hits) > 1:
            matches = ", ".join(repr(self.labels[i]) for i in hits)
            raise CorpusError(f"ambiguous feature label {label!r}: matches {matches}")
        if not hits:
            raise CorpusError(f"unknown feature label {label!r}")
        return hits[0]


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
        """How many of the given features the object has: the one m-of-n count."""
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
    def _by_label(self) -> dict[str, int]:
        return {obj.label: obj.id for obj in self.objects}

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        """One warning per feature constant across two or more objects, computed when read.

        Such features are flagged but never removed. Column sums count
        the features each row has (``present``), so no cell is summed in
        Python.
        """
        objs = self.objects
        n = len(objs)
        if n < 2:
            return ()
        first = objs[0].bits
        column_sums = Counter(chain.from_iterable(obj.present() for obj in objs))
        return tuple(
            f"feature {f} constant ({label!r} is {first[f]} in every object)"
            for f, label in enumerate(self.space.labels)
            if column_sums[f] in (0, n)
        )

    @cached_property
    def feature_index(
        self,
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
        """``(bitmaps, sizes, size_bitmaps)``, built on first use and cached.

        ``bitmaps[f]`` is an int with bit j set when object j has feature
        f; ``sizes[j]`` is object j's number of present features; and
        ``size_bitmaps`` holds one ``(size, bitmap)`` pair per distinct
        size, ascending, the bitmap setting the bits of the objects of
        that size. A corpus has dense ids, so object j has id j.
        One pass over the rows, highest id first, finds each row's
        features with ``bytes.find``, as ``ObjectInstance.present`` does,
        and ORs the object's bit into their bitmaps. The bitmaps retain
        about n·F/8 bytes.
        """
        bitmaps = [0] * len(self.space)
        sizes: list[int] = []
        by_size: dict[int, int] = {}
        bit = 1 << len(self.objects)
        # Highest id first: a bitmap has its final width from its first OR,
        # so each OR frees an int of the size it allocates. In id order, the
        # freed ints of every width pin memory that later allocations can't reuse.
        for obj in reversed(self.objects):
            bit >>= 1
            row = obj.bits
            size = 0
            f = row.find(1)
            while f >= 0:
                bitmaps[f] |= bit
                size += 1
                f = row.find(1, f + 1)
            sizes.append(size)
            by_size[size] = by_size.get(size, 0) | bit
        sizes.reverse()
        return tuple(bitmaps), tuple(sizes), tuple(sorted(by_size.items()))

    def object_by_label(self, label: str) -> ObjectInstance:
        idx = self._by_label.get(label)
        if idx is None:
            raise CorpusError(f"unknown object label {label!r}")
        return self.objects[idx]


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
        features = self.feature_set
        if not features:
            raise ValueError("empty rule feature set")
        if min(features) < 0 or len(set(features)) < len(features):
            raise ValueError(f"feature indices {features} are not distinct and non-negative")
        if not 0 <= self.m <= len(features):
            raise ValueError(f"m={self.m} outside [0, {len(features)}]")

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

