"""The benchmark's own tests: seeded inputs, workload shapes, oracles and tracing.

Run from the repository root with ``python3 -m pytest -q perfbench/selftest.py``.
The file name keeps it out of the repository's default test run, which
should not depend on timing.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from speed import Gauge  # noqa: E402
from tracing import Tracer  # noqa: E402

from polyclust import dataio, datasets, description, engine, information, retrieval  # noqa: E402
from polyclust import Parameters  # noqa: E402

MODULES = {
    "dataio": dataio, "description": description, "engine": engine,
    "information": information, "retrieval": retrieval,
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def encode(gen: workloads.Corpus):
    if gen.fmt == "matrix":
        return dataio.parse_matrix(gen.text)
    return dataio.one_hot_encode(dataio.parse_refer(gen.text))


# Changing a generator changes every workload; these pins make that visible.
PINNED = {
    "planted-grow": "95f54efc90fa6cb7",
    "keyword-sparse": "16a9dee47b92e58c",
    "retrieval-mix": "e73a09871aa19ae1",
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_gives_byte_identical_text(name):
    make = run.WORKLOADS[name].make
    assert make(7).text == make(7).text
    assert make(7).text != make(8).text
    stream = workloads.query_stream(make(7), 7, 44)
    assert stream == workloads.query_stream(make(7), 7, 44)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_generated_text_is_pinned(name):
    assert sha(run.WORKLOADS[name].make(0).text) == PINNED[name]


@pytest.mark.parametrize("seed", [0, 1])
def test_planted_grow_shape(seed):
    w = run.WORKLOADS["planted-grow"]
    gen = w.make(seed * 1000)
    corpus = encode(gen)
    assert (len(corpus), len(corpus.space)) == (60, 40)
    result = engine.run(corpus, Parameters(*w.params))
    assert len(result.field.categories) == 4
    assert len(result.field.unclustered) <= 6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_keyword_sparse_shape(seed):
    w = run.WORKLOADS["keyword-sparse"]
    gen = w.make(seed * 1000)
    corpus = encode(gen)
    assert len(corpus) == 240
    assert 540 <= len(corpus.space) <= 620
    result = engine.run(corpus, Parameters(*w.params))
    assert len(result.field.categories) <= 3


def test_retrieval_mix_shape():
    gen = run.WORKLOADS["retrieval-mix"].make(0)
    assert gen.n == 2000
    assert 1400 <= len(gen.features) <= 1600
    stream = workloads.query_stream(gen, 0, 220)
    assert sum(q.kind == "seed" for q in stream) == 20
    assert all(2 <= len(q.labels) <= 5 and 1 <= q.m <= len(q.labels) for q in stream if q.kind == "rule")


def test_generated_ground_truth_matches_encoding():
    for gen in (workloads.planted_matrix(3), workloads.topic_refer(3)):
        assert oracle.check_encoding(encode(gen), gen) == []


def test_pair_mi_matches_program_affinity():
    corpus = encode(workloads.topic_refer(5))
    rng = random.Random(5)
    width = len(corpus.space)
    for _ in range(300):
        a, b = rng.sample(corpus.objects, 2)
        both = sum(x & y for x, y in zip(a.bits, b.bits))
        expected = information.affinity(a, b)
        assert math.isclose(oracle.pair_mi(a.ones, b.ones, both, width), expected, abs_tol=1e-12)


def test_retrieval_oracles_accept_program_answers_and_reject_tampered_ones():
    gen = workloads.topic_refer(4)
    corpus = encode(gen)
    for query in workloads.query_stream(gen, 4, 66):
        got = run.answer(MODULES, corpus, query)
        assert run.check_answer(gen, query, got) == []
        if query.kind == "rule":
            assert run.check_answer(gen, query, got[1:]) != []
        else:
            bumped = [(got[0][0], got[0][1] + 1e-6)] + list(got[1:])
            assert run.check_answer(gen, query, bumped) != []
            assert run.check_answer(gen, query, list(reversed(got))) != []


def test_clustering_check_rejects_a_broken_partition():
    corpus = datasets.shapes_corpus()
    params = Parameters(0.05, 0.05)
    result = engine.run(corpus, params)
    truth = run.truth_of(corpus)
    assert oracle.check_clustering(engine, result, corpus, params, truth) == []
    broken = replace(result, field=replace(result.field, unclustered=result.field.unclustered[1:]))
    assert oracle.check_clustering(engine, broken, corpus, params, truth) != []


def test_clustering_check_rejects_a_wrong_prototype():
    gen = run.WORKLOADS["planted-grow"].make(0)
    corpus = encode(gen)
    params = Parameters(*run.WORKLOADS["planted-grow"].params)
    result = engine.run(corpus, params)
    assert oracle.check_clustering(engine, result, corpus, params, gen) == []
    cat = result.field.categories[0]
    wrong = replace(cat, best_member=next(i for i in cat.members if i != cat.best_member))
    field = replace(result.field, categories=(wrong,) + result.field.categories[1:])
    assert oracle.check_clustering(engine, replace(result, field=field), corpus, params, gen) != []


def test_tracer_restores_functions_and_nests_spans():
    originals = (engine.run, engine.object_hunt, retrieval.PolymorphousQuery.__dict__["resolve"])
    tracer = Tracer()
    tracer.job = 0
    corpus = datasets.shapes_corpus()
    with tracer.installed(MODULES):
        assert engine.run is not originals[0]
        engine.run(corpus, Parameters(0.05, 0.05))
        retrieval.PolymorphousQuery.resolve(corpus, 1, ("black",))
    assert (engine.run, engine.object_hunt, retrieval.PolymorphousQuery.__dict__["resolve"]) == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == "engine.run" and "engine.protoseed_hunt" in names and "retrieval.resolve" in names
    assert all(s[3] == 0 for s in tracer.spans if s[0].startswith("engine.") and s[0] != "engine.run")
    self_times = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    run_self = self_times[("engine.run", 0)]
    children = sum(v for (n, _), v in self_times.items() if n not in ("engine.run", "retrieval.resolve"))
    assert 0 <= run_self <= total
    assert math.isclose(run_self + children, total, rel_tol=1e-9)
    assert tracer.counts[("information.affinity", 0)] == 28  # the 8x8 affinity matrix


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(120) == 91
    assert run.tail_percentile(54) == 81
    for count in (20, 54, 104, 160, 540, 1040):
        p = run.tail_percentile(count)
        assert count * (100 - p) / 100 >= 10 > count * (100 - p - 1) / 100 or p == 99
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def test_gauge_scales_by_the_nominal_speed():
    gauge = Gauge()
    gauge.start()
    factor = gauge.factor()
    assert len(gauge.readings) == 2 and all(r > 0 for r in gauge.readings)
    assert math.isclose(factor, speed.NOMINAL_S / statistics.fmean(gauge.readings))


def test_repeat_answers_are_compared_with_the_first():
    gen = workloads.topic_refer(4, n=40)
    corpus = encode(gen)
    queries = workloads.query_stream(gen, 4, 11)
    samples, ledger, answers = run.Samples(), run.Ledger(), {}
    run.run_queries(MODULES, corpus, gen, 0, 0, queries, samples, ledger, answers)
    assert (ledger.attempted, ledger.failed) == (11, 0)
    first_rule = next(k for k in answers if queries[k[1]].kind == "rule")
    answers[first_rule] = b"not the first answer"
    run.run_queries(MODULES, corpus, gen, 0, 0, queries, samples, ledger, answers)
    assert (ledger.attempted, ledger.failed) == (22, 1)
    assert all(len(times) == 2 for times in samples.rule.values())
