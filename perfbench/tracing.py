"""Span tracing of polyclust's layers, wrapped from outside the program.

``Tracer.installed`` replaces public functions on the program's modules
with wrappers that record a span (name, start, end, parent, job) in
memory, and puts the originals back on exit. The program calls its own
layers through module attributes (``engine.run`` calls
``object_hunt``, ``description.render_report`` and so on through their
modules), so the wrappers see every layer boundary without a change to
the source. ``information.affinity`` runs up to millions of times a job;
it gets a call counter instead of a span.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# (owner attribute path, span name); hunts also count non-None results
SPANNED = (
    ("dataio.parse_matrix", "dataio.parse"),
    ("dataio.parse_refer", "dataio.parse"),
    ("dataio.one_hot_encode", "dataio.encode"),
    ("dataio.emit_json", "dataio.emit_json"),
    ("engine.run", "engine.run"),
    ("engine.affinity_matrix", "engine.affinity_matrix"),
    ("engine.protoseed_hunt", "engine.protoseed_hunt"),
    ("engine.object_hunt", "engine.object_hunt"),
    ("engine.merge_hunt", "engine.merge_hunt"),
    ("description.polymorphous_rule", "description.polymorphous_rule"),
    ("description.render_report", "description.render_report"),
    ("retrieval.PolymorphousQuery.resolve", "retrieval.resolve"),
    ("retrieval.retrieve", "retrieval.retrieve"),
    ("retrieval.retrieve_by_seed", "retrieval.retrieve_by_seed"),
)
HUNTS = ("engine.protoseed_hunt", "engine.object_hunt", "engine.merge_hunt")
COUNTED = (("information.affinity", "information.affinity"),)


class Tracer:
    """Spans and counts, kept in memory, each tagged with the current job."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index, job]
        self.counts: Counter[tuple[str, int]] = Counter()
        self.job = -1
        self._open: list[int] = []

    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        hunt = name in HUNTS

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.job]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if hunt and result is not None:
                self.counts[(name + ".accepted", self.job)] += 1
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[(name, self.job)] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, modules: dict[str, Any]) -> Iterator["Tracer"]:
        """Wrap every traced function of the given modules for the block's duration."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for path, name, make in [(p, n, self._span) for p, n in SPANNED] + [
                (p, n, self._counter) for p, n in COUNTED
            ]:
                head, *middle, attr = path.split(".")
                owner = modules[head]
                for part in middle:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                wrapped = make(name, getattr(owner, attr))
                setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_times(self) -> dict[tuple[str, int], float]:
        """Seconds per (span name, job): each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, int], float] = {}
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            key = (name, job)
            out[key] = out.get(key, 0.0) + (end - start) - child[index]
        return out

    def export(self) -> list[dict[str, Any]]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]
