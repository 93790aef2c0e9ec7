"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` seeded with a string, which
Python hashes with SHA-512, so the same seed gives byte-identical text on
every interpreter run regardless of ``PYTHONHASHSEED``. Each generator
returns the input text the program parses plus the ground truth the
benchmark's oracles check against: the rows as sets of feature labels,
built here and never read back from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Corpus:
    """Generated input text plus its ground truth."""

    fmt: str  # "matrix" | "refer" | "bundled" (read back from a bundled corpus)
    text: str
    labels: tuple[str, ...]
    rows: tuple[frozenset[str], ...]  # feature labels present in each object
    features: tuple[str, ...]  # the program's feature labels, in its order

    @property
    def n(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Query:
    """One retrieval request: an m-of-n rule or a seed object with top-k."""

    kind: str  # "rule" | "seed"
    m: int = 0
    labels: tuple[str, ...] = ()
    seed: int = 0
    top: int = 0


def planted_matrix(
    seed: int, *, n: int = 60, width: int = 40, k: int = 4, flip: float = 0.10
) -> Corpus:
    """Binary matrix of k random prototypes, each bit of each copy flipped with prob. flip.

    Objects are assigned to prototypes round robin and then shuffled, so
    every prototype gets n/k objects in a seed-dependent order.
    """
    rng = random.Random(f"planted-matrix:{seed}:{n}:{width}:{k}:{flip}")
    prototypes = [[rng.randrange(2) for _ in range(width)] for _ in range(k)]
    assignment = [i % k for i in range(n)]
    rng.shuffle(assignment)
    lines: list[str] = []
    labels: list[str] = []
    rows: list[frozenset[str]] = []
    for i, proto in enumerate(assignment):
        bits = [b ^ (rng.random() < flip) for b in prototypes[proto]]
        label = f"p{i:04d}"
        labels.append(label)
        rows.append(frozenset(f"f{f}" for f, b in enumerate(bits) if b))
        lines.append(label + "," + ",".join(str(b) for b in bits))
    features = tuple(f"f{f}" for f in range(width))
    return Corpus("matrix", "\n".join(lines) + "\n", tuple(labels), tuple(rows), features)


def topic_refer(
    seed: int,
    *,
    n: int = 240,
    vocab: int = 800,
    topics: int = 8,
    topic_words: int = 30,
    per_record: int = 10,
    topic_share: float = 0.7,
) -> Corpus:
    """Refer records whose keywords come mostly from one topic's word list.

    Record i belongs to topic i mod topics. Each of its keywords is drawn
    from its topic's words with probability topic_share and from the whole
    vocabulary otherwise, redrawing duplicates.
    """
    rng = random.Random(
        f"topic-refer:{seed}:{n}:{vocab}:{topics}:{topic_words}:{per_record}:{topic_share}"
    )
    words = [f"TERM {w:04d}" for w in range(vocab)]
    blocks: list[str] = []
    labels: list[str] = []
    rows: list[frozenset[str]] = []
    ordered: list[list[str]] = []
    for i in range(n):
        topic = i % topics
        own = words[topic * topic_words : (topic + 1) * topic_words]
        chosen: list[str] = []
        while len(chosen) < per_record:
            word = rng.choice(own) if rng.random() < topic_share else rng.choice(words)
            if word not in chosen:
                chosen.append(word)
        label = f"record {i:04d}"
        labels.append(label)
        rows.append(frozenset(chosen))
        ordered.append(chosen)
        lines = [
            f"% {label}",
            f"%A Author {rng.randrange(10_000):04d}",
            f"%T Synthetic record {i} on topic {topic}",
        ]
        lines.extend(f"%# {10_000 + int(w[5:])}: {w}" for w in chosen)
        blocks.append("\n".join(lines))
    # encoding keeps keywords in first-appearance order and drops those
    # present in every record
    counts: dict[str, int] = {}
    for record in ordered:
        for word in record:
            counts[word] = counts.get(word, 0) + 1
    features = tuple(w for w in counts if counts[w] < n)
    return Corpus("refer", "\n\n".join(blocks) + "\n", tuple(labels), tuple(rows), features)


def query_stream(
    corpus: Corpus,
    seed: int,
    count: int,
    *,
    rules_per_seed: int = 10,
    min_labels: int = 2,
    max_labels: int = 5,
    top: int = 10,
) -> tuple[Query, ...]:
    """A fixed mix of rules_per_seed rule queries to one seed query.

    A rule query names min_labels..max_labels distinct features of one
    uniform object, so it matches at least that object, with m uniform in
    [1, labels]. A seed query picks a uniform object and asks for the top.
    """
    rng = random.Random(f"query-stream:{seed}:{count}:{rules_per_seed}")
    kept = set(corpus.features)
    out: list[Query] = []
    for q in range(count):
        if q % (rules_per_seed + 1) == rules_per_seed:
            out.append(Query("seed", seed=rng.randrange(corpus.n), top=top))
            continue
        pool = sorted(corpus.rows[rng.randrange(corpus.n)] & kept)
        size = rng.randint(min(min_labels, len(pool)), min(max_labels, len(pool)))
        labels = tuple(rng.sample(pool, size))
        out.append(Query("rule", m=rng.randint(1, size), labels=labels))
    return tuple(out)
