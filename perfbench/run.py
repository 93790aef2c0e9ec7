"""polyclust benchmark: one workload, one seed, one single-threaded process.

Run from the repository root:

    python3 perfbench/run.py --workload planted-grow --seed 1 --seconds 30 --trace 0

It imports polyclust from ``src/`` of the checkout it sits in, generates
the workload's inputs from ``--seed``, times the library path that the
``cluster`` and ``query`` commands use for ``--seconds`` of measured work
(scaled to a reference machine speed, see speed.py), checks every output
off the clock, and prints one JSON object as the last line of standard
output. ``--trace 0`` reports the end-to-end
metrics with tracing off; ``--trace 1`` runs each job twice, untraced and
traced, and reports the per-layer metrics. A results file with the
environment record goes to ``perfbench/out/``. The exit code is 1 when
any output check fails and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import oracle
import workloads
from speed import Gauge
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LAYERS = ("dataio", "datasets", "description", "engine", "information", "retrieval")
# layers whose share of a traced job the design claims rest on
SHARES = ("engine.object_hunt_s", "engine.affinity_matrix_s", "retrieval.retrieve_by_seed_s")


@dataclass(frozen=True)
class Workload:
    kind: str  # "cluster": jobs are clustering runs; "retrieval": jobs are query rounds
    make: Callable[[int], workloads.Corpus]
    # Distinct jobs of a run: generated inputs on a cluster workload, query
    # rounds on retrieval-mix. A run repeats them in passes until --seconds
    # of timed work are done.
    jobs: int
    min_passes: int  # every job and query is timed at least this often; its fastest time counts
    # Queries come in rounds of rules_per_seed rule queries and one seed
    # query; a cluster job is followed by rounds_per_job rounds on its corpus.
    rules_per_seed: int
    rounds_per_job: int = 1
    params: tuple[float, ...] = ()  # cohesion, distinctiveness, alpha; cluster workloads only
    # set-ups before the run; a cluster run also re-imports after every job,
    # so its set-up samples spread over the run instead of one moment
    setup_repeats: int = 1


# Why these three: the engine's cost moves between layers with the use.
WORKLOADS = {
    # object hunting re-scores every candidate: most of a job
    "planted-grow": Workload(
        "cluster", workloads.planted_matrix,
        jobs=16, min_passes=2, rules_per_seed=40, rounds_per_job=10, params=(0.3, 0.15, 0.5),
    ),
    # all-pairs affinity over ~580 sparse keyword features: most of a job
    "keyword-sparse": Workload(
        "cluster", workloads.topic_refer,
        jobs=8, min_passes=2, rules_per_seed=40, rounds_per_job=13, params=(0.04, 0.02, 0.5),
    ),
    # read-only m-of-n and seed scans over one large corpus loaded at set-up
    "retrieval-mix": Workload(
        "retrieval",
        lambda seed: workloads.topic_refer(seed, n=2000, vocab=1536),
        jobs=54, min_passes=2, rules_per_seed=10, setup_repeats=3,
    ),
}


class ProgramMissing(RuntimeError):
    """The checkout holds no importable polyclust sources."""


def load_program() -> tuple[dict[str, Any], float]:
    """Import polyclust afresh from the checkout's src; return its modules and the seconds taken."""
    package_dir = SRC / "polyclust"
    if not (package_dir / "__init__.py").is_file():
        raise ProgramMissing(f"no polyclust sources at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "polyclust" or m.startswith("polyclust.")]:
        del sys.modules[name]
    started = time.perf_counter()
    package = importlib.import_module("polyclust")
    elapsed = time.perf_counter() - started
    if Path(package.__file__).resolve().parent != package_dir.resolve():
        raise ProgramMissing(f"polyclust was imported from {package.__file__}, not {package_dir}")
    modules = {name: importlib.import_module(f"polyclust.{name}") for name in LAYERS}
    modules["polyclust"] = package
    return modules, elapsed


def time_import() -> float:
    """Seconds for a fresh import of polyclust; the modules in use stay in place."""
    in_use = {m: mod for m, mod in sys.modules.items() if m == "polyclust" or m.startswith("polyclust.")}
    try:
        return load_program()[1]
    finally:
        for name in [m for m in sys.modules if m == "polyclust" or m.startswith("polyclust.")]:
            del sys.modules[name]
        sys.modules.update(in_use)


@dataclass
class Ledger:
    """Operations attempted and failed, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])

    def crashed(self, what: str) -> None:
        self.record(what, [traceback.format_exc(limit=3).strip().replace("\n", " | ")])


def truth_of(corpus: Any) -> workloads.Corpus:
    """Ground truth read back from a corpus, for inputs the benchmark did not generate."""
    labels = corpus.space.labels
    rows = tuple(frozenset(labels[f] for f in obj.present()) for obj in corpus.objects)
    return workloads.Corpus("bundled", "", (), rows, tuple(labels))


def cluster_job(mods: dict[str, Any], gen: workloads.Corpus, params: Any) -> tuple[Any, Any, str]:
    dataio = mods["dataio"]
    if gen.fmt == "matrix":
        corpus = dataio.parse_matrix(gen.text)
    else:
        corpus = dataio.one_hot_encode(dataio.parse_refer(gen.text))
    result = mods["engine"].run(corpus, params)
    return corpus, result, dataio.emit_json(result)


def answer(mods: dict[str, Any], corpus: Any, query: workloads.Query) -> Any:
    retrieval = mods["retrieval"]
    if query.kind == "rule":
        resolved = retrieval.PolymorphousQuery.resolve(corpus, query.m, query.labels)
        return retrieval.retrieve(corpus, resolved)
    return retrieval.retrieve_by_seed(corpus, query.seed, query.top)


def check_answer(truth: workloads.Corpus, query: workloads.Query, got: Any) -> list[str]:
    if query.kind == "rule":
        return oracle.check_rule(truth.rows, query.m, query.labels, got)
    return oracle.check_seed(truth.rows, truth.features, query.seed, query.top, got)


Key = tuple[int, int]  # (job, position of a query in the job's batch)


@dataclass
class Samples:
    """Timings in seconds at the reference speed of speed.py, plus raw job times.

    A run repeats a fixed set of jobs and queries in passes; jobs are keyed
    by their index, queries by (job, position in the job's stream).
    """

    gauge: Gauge = field(default_factory=Gauge)
    setup: list[float] = field(default_factory=list)
    jobs: dict[int, list[float]] = field(default_factory=dict)
    raw_jobs: list[float] = field(default_factory=list)  # as measured
    traced_jobs: list[float] = field(default_factory=list)  # as measured
    objects: dict[int, int] = field(default_factory=dict)  # clustered, or scanned, by each job
    rule: dict[Key, list[float]] = field(default_factory=dict)
    seed: dict[Key, list[float]] = field(default_factory=dict)
    passes: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    # per traced job: features, categories, unclustered objects, accepted actions
    shapes: dict[int, tuple[int, int, int, int]] = field(default_factory=dict)


def run_queries(
    mods: dict[str, Any], corpus: Any, truth: workloads.Corpus, job: int, first: int,
    queries: tuple[workloads.Query, ...], samples: Samples, ledger: Ledger,
    answers: dict[Key, bytes],
) -> tuple[float, float]:
    """Answer one round of queries in order, one client in a closed loop; check each after.

    The queries are numbers first, first + 1, ... of the job's stream. An
    answer is checked against the oracle the first time its query is
    asked; a repeat must equal that first answer, kept as a digest so
    the benchmark's own memory stays small. Returns the round's
    seconds as measured and its speed factor.
    """
    got: list[Any] = []
    times: list[float] = []
    samples.gauge.start()
    started = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter()
        try:
            result = answer(mods, corpus, query)
        except Exception:
            result = None
            ledger.crashed(f"{query.kind} query")
        times.append(time.perf_counter() - t0)
        got.append(result)
    wall = time.perf_counter() - started
    factor = samples.gauge.factor()
    for q, (query, result, elapsed) in enumerate(zip(queries, got, times), first):
        if result is None:
            continue
        key = (job, q)
        (samples.rule if query.kind == "rule" else samples.seed).setdefault(key, []).append(elapsed * factor)
        digest = hashlib.sha256(repr(result).encode()).digest()
        if key in answers:
            problems = [] if digest == answers[key] else ["repeat answer differs from the first"]
        else:
            answers[key] = digest
            problems = check_answer(truth, query, result)
        ledger.record(f"{query.kind} query", problems)
    return wall, factor


def preflight(mods: dict[str, Any], ledger: Ledger, samples: Samples) -> None:
    """Untimed: both bundled corpora at the README's thresholds, through the same checks."""
    polyclust = mods["polyclust"]
    datasets = mods["datasets"]
    cases = (
        ("shapes", datasets.shapes_corpus(), (0.05, 0.05), ()),
        (
            "abstracts", datasets.abstracts_corpus(), (0.005, 0.05),
            (workloads.Query("rule", m=1, labels=("VISUAL SEARCH",)),
             workloads.Query("seed", seed=3, top=3)),
        ),
    )
    for name, corpus, (cohesion, margin), queries in cases:
        params = polyclust.Parameters(cohesion, margin)
        try:
            result = mods["engine"].run(corpus, params)
            text = mods["dataio"].emit_json(result)
            again = mods["dataio"].emit_json(mods["engine"].run(corpus, params))
        except Exception:
            ledger.crashed(f"preflight {name}")
            continue
        truth = truth_of(corpus)
        problems = oracle.check_clustering(mods["engine"], result, corpus, params, truth)
        if text != again:
            problems.append("two runs differ")
        ledger.record(f"preflight {name}", problems)
        samples.digests[f"preflight/{name}"] = hashlib.sha256(text.encode()).hexdigest()
        for query in queries:
            try:
                got = answer(mods, corpus, query)
            except Exception:
                ledger.crashed(f"preflight {name} {query.kind} query")
                continue
            ledger.record(f"preflight {name} query", check_answer(truth, query, got))


def run_cluster(
    w: Workload, mods: dict[str, Any], seed: int, seconds: float, tracer: Optional[Tracer],
    samples: Samples, ledger: Ledger,
) -> None:
    params = mods["polyclust"].Parameters(*w.params)
    inputs = [w.make(seed * 1000 + j) for j in range(w.jobs)]
    streams = [
        workloads.query_stream(
            gen, seed * 1000 + j, w.rounds_per_job * (w.rules_per_seed + 1),
            rules_per_seed=w.rules_per_seed,
        )
        for j, gen in enumerate(inputs)
    ]
    answers: dict[Key, bytes] = {}
    measured = 0.0
    while samples.passes < w.min_passes or measured < seconds:
        for j, gen in enumerate(inputs):
            if samples.passes >= w.min_passes and measured >= seconds:
                break
            measured += cluster_once(
                mods, gen, j, seed, params, streams[j], w.rules_per_seed + 1,
                tracer, samples, ledger, answers,
            )
        samples.passes += 1


def cluster_once(
    mods: dict[str, Any], gen: workloads.Corpus, j: int, seed: int, params: Any,
    queries: tuple[workloads.Query, ...], per_round: int, tracer: Optional[Tracer],
    samples: Samples, ledger: Ledger, answers: dict[Key, bytes],
) -> float:
    """One clustering job on input j, then its query rounds; returns the seconds timed."""
    job = f"job {j} pass {samples.passes}"
    gauge = samples.gauge
    gauge.start()
    t0 = time.perf_counter()
    try:
        corpus, result, text = cluster_job(mods, gen, params)
    except Exception:
        ledger.crashed(job)
        return 0.0
    elapsed = time.perf_counter() - t0
    samples.jobs.setdefault(j, []).append(elapsed * gauge.factor())
    samples.raw_jobs.append(elapsed)
    samples.objects[j] = gen.n
    digest = hashlib.sha256(text.encode()).hexdigest()
    key = f"seed{seed}/input{j}"
    if key in samples.digests:
        problems = [] if digest == samples.digests[key] else ["repeat run is not byte-identical"]
    else:
        samples.digests[key] = digest
        problems = oracle.check_encoding(corpus, gen)
        problems += oracle.check_clustering(mods["engine"], result, corpus, params, gen)
    ledger.record(job, problems)
    if tracer is None:
        # The first query after a job runs with cold caches, several times
        # slower; one untimed query warms them, so the tail is the program's.
        answer(mods, corpus, queries[-1])
        for first in range(0, len(queries), per_round):
            elapsed += run_queries(
                mods, corpus, gen, j, first, queries[first : first + per_round],
                samples, ledger, answers,
            )[0]
        gauge.start()
        import_s = time_import()
        samples.setup.append(import_s * gauge.factor())
        return elapsed
    tracer.job = len(samples.traced_jobs)
    t0 = time.perf_counter()
    try:
        with tracer.installed(mods):
            _, traced, traced_text = cluster_job(mods, gen, params)
    except Exception:
        ledger.crashed(f"traced {job}")
        return elapsed
    traced_s = time.perf_counter() - t0
    samples.traced_jobs.append(traced_s)
    samples.shapes[tracer.job] = (
        len(corpus.space), len(traced.field.categories),
        len(traced.field.unclustered), len(traced.trace),
    )
    same = [] if traced_text == text else ["traced run differs from the untraced one"]
    ledger.record(f"traced {job}", same)
    return elapsed + traced_s


def run_retrieval(
    w: Workload, mods: dict[str, Any], gen: workloads.Corpus, corpus: Any, seed: int,
    seconds: float, tracer: Optional[Tracer], samples: Samples, ledger: Ledger,
) -> None:
    problems = oracle.check_encoding(corpus, gen)
    ledger.record("set-up corpus", problems)
    per_round = w.rules_per_seed + 1
    stream = workloads.query_stream(gen, seed, w.jobs * per_round, rules_per_seed=w.rules_per_seed)
    rounds = [stream[r * per_round : (r + 1) * per_round] for r in range(w.jobs)]
    answers: dict[Key, bytes] = {}
    for query in rounds[0]:  # warm-up, untimed
        answer(mods, corpus, query)
    measured = 0.0
    while samples.passes < w.min_passes or measured < seconds:
        for r, queries in enumerate(rounds):
            if samples.passes >= w.min_passes and measured >= seconds:
                break
            elapsed, factor = run_queries(mods, corpus, gen, r, 0, queries, samples, ledger, answers)
            measured += elapsed
            samples.jobs.setdefault(r, []).append(elapsed * factor)
            samples.raw_jobs.append(elapsed)
            samples.objects[r] = gen.n * len(queries)
            if tracer is not None:
                tracer.job = len(samples.traced_jobs)
                traced = Ledger()
                with tracer.installed(mods):
                    elapsed = run_queries(
                        mods, corpus, gen, r, 0, queries, Samples(), traced, answers
                    )[0]
                measured += elapsed
                samples.traced_jobs.append(elapsed)
                samples.shapes[tracer.job] = (len(corpus.space), 0, 0, 0)
                ledger.record(f"traced round {r}", traced.problems if traced.failed else [])
        samples.passes += 1


def tail_percentile(count: int) -> int:
    """Highest whole percentile, at most the 99th, with at least ten of count samples beyond it."""
    if count < 20:
        raise ValueError(f"{count} samples cannot give a tail with ten beyond it")
    return min(99, 100 * (count - 10) // count)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def best(units: dict[Any, list[float]]) -> list[float]:
    """Each unit's fastest time over the passes of a run."""
    return [min(times) for times in units.values()]


def end_to_end(samples: Samples, notes: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """The metrics a user sees, from samples taken with tracing off.

    Every time is at the reference speed of speed.py. Job metrics use
    every job of every pass. Each query counts once, with its fastest
    time over the passes: a query of well under a millisecond is
    otherwise as often hit by an interrupt as it is slow, and the tail
    would count the interrupts.
    """
    jobs = [t for times in samples.jobs.values() for t in times]
    rule, seed = best(samples.rule), best(samples.seed)
    rule_tail, seed_tail = tail_percentile(len(rule)), tail_percentile(len(seed))
    readings = samples.gauge.readings
    notes.update(
        passes=samples.passes, setup_samples=len(samples.setup),
        jobs=len(samples.jobs), job_samples=len(jobs),
        rule_queries=len(rule), rule_tail=f"p{rule_tail}",
        seed_queries=len(seed), seed_tail=f"p{seed_tail}",
        speed_readings=len(readings),
        speed_quartiles_ms=[round(1e3 * v, 4) for v in statistics.quantiles(readings, n=4)],
    )
    return {
        "setup_s": (statistics.median(samples.setup), "s"),
        "job_p50_s": (statistics.median(jobs), "s"),
        "objects_per_s": (
            sum(samples.objects[j] * len(times) for j, times in samples.jobs.items()) / sum(jobs),
            "1/s",
        ),
        "rule_query_p50_ms": (1e3 * statistics.median(rule), "ms"),
        "rule_query_tail_ms": (1e3 * percentile(rule, rule_tail), "ms"),
        "seed_query_p50_ms": (1e3 * statistics.median(seed), "ms"),
        "seed_query_tail_ms": (1e3 * percentile(seed, seed_tail), "ms"),
        "queries_per_s": ((len(rule) + len(seed)) / (sum(rule) + sum(seed)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, samples: Samples) -> dict[str, tuple[float, str]]:
    """Per-job means of each layer's self time and counts, from the traced jobs.

    Set-up spans, traced once on retrieval-mix, are added whole.
    """
    jobs = len(samples.traced_jobs)
    self_times = tracer.self_times()
    calls: dict[str, int] = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1

    def seconds(name: str) -> tuple[float, str]:
        # job -1 is the one traced set-up, which happens once a run
        per_job = sum(v for (n, j), v in self_times.items() if n == name and j >= 0) / jobs
        return (per_job + self_times.get((name, -1), 0.0), "s")

    def count(name: str) -> int:
        return sum(v for (n, _), v in tracer.counts.items() if n == name)

    metrics: dict[str, tuple[float, str]] = {
        "job_traced_s": (statistics.fmean(samples.traced_jobs), "s"),
        "tracing_overhead_frac": (
            statistics.median(samples.traced_jobs) / statistics.median(samples.raw_jobs) - 1.0,
            "ratio",
        ),
    }
    for name in ("dataio.parse", "dataio.encode", "dataio.emit_json"):
        metrics[f"{name}_s"] = seconds(name)
    metrics["engine.run_self_s"] = seconds("engine.run")
    metrics["engine.affinity_matrix_s"] = seconds("engine.affinity_matrix")
    for state in ("protoseed", "object", "merge"):
        name = f"engine.{state}_hunt"
        metrics[f"{name}_s"] = seconds(name)
        metrics[f"{name}_calls"] = (calls.get(name, 0) / jobs, "count")
        accepted = count(f"{name}.accepted")
        metrics[f"engine.{state}_accept_ratio"] = (
            accepted / calls[name] if calls.get(name) else 0.0, "ratio"
        )
    affinity = {job: v for (n, job), v in tracer.counts.items() if n == "information.affinity"}
    metrics["information.affinity_calls"] = (sum(affinity.values()) / jobs, "count")
    metrics["information.pair_bits"] = (
        sum(affinity.get(job, 0) * shape[0] for job, shape in samples.shapes.items()) / jobs,
        "bits_computed",
    )
    for name in ("description.polymorphous_rule", "description.render_report"):
        metrics[f"{name}_s"] = seconds(name)
    for name in ("retrieval.resolve", "retrieval.retrieve", "retrieval.retrieve_by_seed"):
        metrics[f"{name}_s"] = seconds(name)
    for index, name in enumerate(("categories", "unclustered", "accepted_actions"), 1):
        metrics[f"engine.{name}"] = (statistics.fmean(s[index] for s in samples.shapes.values()), "count")
    return metrics


def git_commit() -> Optional[str]:
    """The checkout's commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, seconds: float, trace: int, load_start: tuple) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_commit": git_commit(),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_start = os.getloadavg()
    w = WORKLOADS[args.workload]
    ledger = Ledger()
    samples = Samples()
    tracer = Tracer() if args.trace else None

    try:
        gen = w.make(args.seed) if w.kind == "retrieval" else None
        for _ in range(w.setup_repeats):
            corpus = None  # drop the last set-up's corpus first: one is loaded at a time
            samples.gauge.start()
            mods, import_s = load_program()
            t0 = time.perf_counter()
            if gen is not None:
                corpus = mods["dataio"].one_hot_encode(mods["dataio"].parse_refer(gen.text))
            setup_s = import_s + time.perf_counter() - t0
            samples.setup.append(setup_s * samples.gauge.factor())
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if tracer is not None and gen is not None:
        with tracer.installed(mods):
            corpus = mods["dataio"].one_hot_encode(mods["dataio"].parse_refer(gen.text))

    preflight(mods, ledger, samples)
    if w.kind == "cluster":
        run_cluster(w, mods, args.seed, args.seconds, tracer, samples, ledger)
    else:
        run_retrieval(w, mods, gen, corpus, args.seed, args.seconds, tracer, samples, ledger)

    notes: dict[str, Any] = {}
    try:
        if tracer is None:
            metrics = end_to_end(samples, notes)
        else:
            metrics = per_layer(tracer, samples)
            notes["engine_spans"] = sum(1 for s in tracer.spans if s[0].startswith("engine."))
            notes["spans"] = len(tracer.spans)
            job_s = metrics["job_traced_s"][0]
            for name in SHARES:
                notes[f"share {name}"] = round(metrics[name][0] / job_s, 4)
    except (statistics.StatisticsError, ZeroDivisionError):
        # only reachable when operations failed and left too few samples
        ledger.record("metrics", ["too few successful operations to compute the metrics"])
        metrics = {}
    correct = ledger.failed == 0
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(args.workload, args.seed, args.seconds, args.trace, load_start),
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems[:50],
        "metrics": reported,
        "samples": notes,
        "digests": samples.digests,
        "seconds_at_reference_speed": {
            "setup": samples.setup, "jobs": list(samples.jobs.values()),
            "rule": list(samples.rule.values()), "seed": list(samples.seed.values()),
        },
        "seconds_as_measured": {"jobs": samples.raw_jobs, "traced_jobs": samples.traced_jobs},
        "speed_readings_s": samples.gauge.readings,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.export()) + "\n")

    for problem in ledger.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    env = record["environment"]
    print(f"# {args.workload} seed {args.seed}: python {env['python']}, nproc {env['nproc']}, "
          f"loadavg {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    print("# samples: " + ", ".join(f"{k} {v}" for k, v in notes.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
