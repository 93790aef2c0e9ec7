"""Polymorphous concept formation over binary feature data.

polyclust clusters objects described by binary or multi-valued features
into categories held together by information transmission rather than
by shared defining features. Each category comes out with a prototype
(best member), an at-least-m-of-n membership rule, and an explicit
contrast against every other category. The same m-of-n rule form
doubles as a retrieval query language.

The names below are the documented API; every other name stays
importable from its submodule (``polyclust.engine``, ``polyclust.model``
and so on).
"""

from __future__ import annotations

from . import datasets
from .dataio import (
    ParseError,
    emit_json,
    one_hot_encode,
    parse_csv,
    parse_matrix,
    parse_refer,
)
from .description import report_record
from .engine import RunResult, run
from .model import Corpus, CorpusError, ParameterError, Parameters
from .retrieval import PolymorphousQuery, retrieve, retrieve_by_seed

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "CorpusError",
    "ParameterError",
    "Parameters",
    "ParseError",
    "PolymorphousQuery",
    "RunResult",
    "datasets",
    "emit_json",
    "one_hot_encode",
    "parse_csv",
    "parse_matrix",
    "parse_refer",
    "report_record",
    "retrieve",
    "retrieve_by_seed",
    "run",
]
