"""Golden snapshot: seeded runs must keep their exact report and JSON.

Each case is one ``run`` whose ``emit_json(result) + result.report`` is
reduced to the first 16 hex digits of its SHA-256. The cases are 400
seeded random corpora (2-14 objects, 2-10 features, random thresholds
and alpha) and the two bundled corpora on every point of the committed
threshold grid, and of the scaled grids that acceptance criteria 2 and 3
sweep. The digests live in ``tests/data/golden_runs.json``. The random
corpora are built from tuples of 0/1 ints, which ``ObjectInstance``
converts to ``bytes``, so every corpus the snapshot runs already holds
the ``bytes`` rows that the parsers store.

A change that alters any output changes digests and fails this test.
When such a change is intended (exact decision keys, for instance),
regenerate the file with::

    PYTHONPATH=src python tests/test_golden.py

which calls ``write()``, and list every case whose digest changed, with
the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Iterator

from conftest import bits_corpus, with_rows
from polyclust import datasets, emit_json, run
from polyclust.model import Corpus, Parameters

GOLDEN = Path(__file__).parent / "data" / "golden_runs.json"
GRID = [round(0.05 * k, 2) for k in range(1, 20)]  # 0.05 .. 0.95
RANDOM_CASES = 400


def random_cases() -> Iterator[tuple[str, Corpus, Parameters]]:
    """The 400 seeded random corpora, each with its random parameters."""
    rng = random.Random(20131)
    for k in range(RANDOM_CASES):
        n = rng.randint(2, 14)
        width = rng.randint(2, 10)
        density = rng.uniform(0.15, 0.85)
        patterns = [
            "".join("1" if rng.random() < density else "0" for _ in range(width))
            for _ in range(n)
        ]
        params = Parameters(
            cohesion_threshold=rng.uniform(0.0, 0.6),
            distinctiveness_threshold=rng.uniform(0.0, 0.4),
            rule_alpha=rng.uniform(0.2, 1.0),
        )
        yield f"random-{k:03d}", bits_corpus(patterns), params


def cases() -> Iterator[tuple[str, Corpus, Parameters]]:
    """Every snapshot case as (name, corpus, parameters), in a fixed order."""
    yield from random_cases()
    shapes, abstracts = datasets.shapes_corpus(), datasets.abstracts_corpus()
    # the committed grid, then the scaled grids that acceptance criteria
    # 2 and 3 sweep, where the bundled corpora do form categories
    for name, corpus, scale in (
        ("shapes", shapes, 1),
        ("abstracts", abstracts, 1),
        ("shapes", shapes, 10),
        ("abstracts", abstracts, 100),
        ("abstracts", abstracts, 1000),
    ):
        for c in GRID:
            for d in GRID:
                params = Parameters(c / scale, d / scale)
                yield f"{name}-{c:.2f}-{d:.2f}-div{scale}", corpus, params


def digest(corpus: Corpus, params: Parameters) -> str:
    """First 16 hex digits of the SHA-256 of a run's JSON and report."""
    result = run(corpus, params)
    text = emit_json(result) + result.report
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def snapshot() -> dict[str, str]:
    """Every case's digest."""
    return {name: digest(corpus, params) for name, corpus, params in cases()}


def write() -> None:
    """Regenerate the golden file from the code in this checkout."""
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1) + "\n", encoding="utf-8")


def test_every_case_matches_its_golden_digest():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = snapshot()
    assert list(got) == list(golden), "the case list changed; regenerate with write()"
    changed = [name for name in golden if got[name] != golden[name]]
    assert not changed, f"{len(changed)} of {len(golden)} digests changed: {changed[:10]}"


def test_bytes_rows_give_the_same_digests():
    """Every snapshot corpus stores ``bytes`` rows: rebuilt as ``bytes``, it is the same corpus."""
    for _, corpus, _ in cases():
        assert all(type(obj.bits) is bytes for obj in corpus.objects)
        assert with_rows(corpus, bytes) == corpus


if __name__ == "__main__":
    write()
