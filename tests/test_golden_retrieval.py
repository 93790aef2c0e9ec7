"""Golden snapshot: seed and rule retrieval must keep their exact answers.

The corpora are the 400 seeded random corpora of ``test_golden`` and the
two bundled corpora. Each corpus has two cases:

- ``<name>/seed``: ``retrieve_by_seed`` for every seed and k in 1, 3 and
  the corpus size;
- ``<name>/rule``: a seeded set of ``retrieve`` rule queries (4 per
  random corpus, 25 per bundled corpus).

Each case is the ``repr`` of its answers, reduced to the first 16 hex
digits of its SHA-256, so every float affinity is pinned to the last
bit. The digests live in ``tests/data/golden_retrieval.json``. Every
corpus holds ``bytes`` rows, the rows the parsers store:
``ObjectInstance`` converts the random corpora's tuples of 0/1 ints.
When a change to the answers is intended, regenerate the file with::

    PYTHONPATH=src python tests/test_golden_retrieval.py

which calls ``write()``, and list every case whose digest changed, with
the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Iterator

from conftest import with_rows
from test_golden import random_cases
from polyclust import datasets
from polyclust.model import Corpus
from polyclust.retrieval import PolymorphousQuery, retrieve, retrieve_by_seed

GOLDEN = Path(__file__).parent / "data" / "golden_retrieval.json"


def corpora() -> Iterator[tuple[str, Corpus, int]]:
    """Every snapshot corpus as (name, corpus, rule queries), in a fixed order."""
    for name, corpus, _ in random_cases():
        yield name, corpus, 4
    yield "shapes", datasets.shapes_corpus(), 25
    yield "abstracts", datasets.abstracts_corpus(), 25


def seed_answers(corpus: Corpus) -> tuple[Any, ...]:
    n = len(corpus)
    return tuple(
        (seed, k, retrieve_by_seed(corpus, seed, k))
        for seed in range(n)
        for k in (1, 3, n)
    )


def rule_answers(corpus: Corpus, count: int, rng: random.Random) -> tuple[Any, ...]:
    labels = corpus.space.labels
    out = []
    for _ in range(count):
        names = tuple(rng.sample(labels, rng.randint(1, min(len(labels), 5))))
        m = rng.randint(1, len(names))
        out.append((m, names, retrieve(corpus, PolymorphousQuery.resolve(corpus, m, names))))
    return tuple(out)


def digest(answers: tuple[Any, ...]) -> str:
    """First 16 hex digits of the SHA-256 of the answers' repr."""
    return hashlib.sha256(repr(answers).encode("utf-8")).hexdigest()[:16]


def snapshot() -> dict[str, str]:
    """Every case's digest."""
    rng = random.Random(20132)
    out: dict[str, str] = {}
    for name, corpus, rules in corpora():
        out[f"{name}/seed"] = digest(seed_answers(corpus))
        out[f"{name}/rule"] = digest(rule_answers(corpus, rules, rng))
    return out


def write() -> None:
    """Regenerate the golden file from the code in this checkout."""
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1) + "\n", encoding="utf-8")


def test_every_retrieval_case_matches_its_golden_digest():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = snapshot()
    assert list(got) == list(golden), "the case list changed; regenerate with write()"
    changed = [name for name in golden if got[name] != golden[name]]
    assert not changed, f"{len(changed)} of {len(golden)} digests changed: {changed[:10]}"


def test_bytes_rows_give_the_same_digests():
    """Every snapshot corpus stores ``bytes`` rows: rebuilt as ``bytes``, it is the same corpus."""
    for _, corpus, _ in corpora():
        assert all(type(obj.bits) is bytes for obj in corpus.objects)
        assert with_rows(corpus, bytes) == corpus


if __name__ == "__main__":
    write()
