"""Command line interface.

Exit codes: 0 on success, 1 on input errors (unreadable, non-UTF-8 or
malformed files, or a corpus that breaks an invariant that `Corpus` checks
when built), 2 on parameter errors (bad flags or out-of-range values).
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path
from typing import Optional

import click

from . import dataio, description, engine, information, retrieval
from .dataio import ParseError
from .model import Corpus, CorpusError, ParameterError, Parameters

_SUFFIX_FORMATS = {
    "csv": "csv",
    "ref": "refer",
    "refer": "refer",
    "bib": "refer",
    "mat": "matrix",
    "matrix": "matrix",
}


def _infer_format(path: str) -> Optional[str]:
    suffix = path.rsplit(".", 1)[-1].lower() if "." in path else ""
    return _SUFFIX_FORMATS.get(suffix)


def _load_corpus(path: str, fmt: Optional[str], with_title_tokens: bool = False) -> Corpus:
    if fmt is None:
        fmt = _infer_format(path)
        if fmt is None:
            raise click.UsageError(
                f"cannot infer the input format of {path!r}; pass --format"
            )
    if with_title_tokens and fmt != "refer":
        raise click.UsageError("--with-title-tokens applies to refer input only")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise click.ClickException(f"cannot read {path}: {exc}") from exc
    try:
        if fmt == "csv":
            corpus = dataio.one_hot_encode(dataio.parse_csv(text))
        elif fmt == "refer":
            corpus = dataio.one_hot_encode(
                dataio.parse_refer(text), with_title_tokens=with_title_tokens
            )
        else:
            corpus = dataio.parse_matrix(text)
    except (ParseError, CorpusError) as exc:
        raise click.ClickException(str(exc)) from exc
    return corpus


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "refer", "matrix"]),
    default=None,
    help="Input format; inferred from the file suffix when omitted.",
)
_title_tokens_option = click.option(
    "--with-title-tokens",
    is_flag=True,
    help="Refer input: also index lower-cased title words not covered by keywords.",
)
_input_option = click.option(
    "--input",
    "path",
    required=True,
    type=click.Path(dir_okay=False),
    help="Input file.",
)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(package_name="polyclust", prog_name="polyclust")
def main() -> None:
    """Form polymorphous categories over binary feature data, and query them."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")


@main.command()
@_input_option
@_format_option
@click.option(
    "--cohesion", default=Parameters.cohesion_threshold, show_default=True,
    help="Minimum within-category mean affinity, in bits.",
)
@click.option(
    "--distinctiveness", default=Parameters.distinctiveness_threshold, show_default=True,
    help="Minimum cohesion margin over every other category, in bits.",
)
@click.option(
    "--alpha", default=Parameters.rule_alpha, show_default=True,
    help="Minimum in-category frequency for a rule feature.",
)
@click.option(
    "--output", "output_format", type=click.Choice(["text", "json"]), default="text",
    show_default=True,
)
@click.option("--trace", is_flag=True, help="Echo each accepted engine action to stderr.")
@_title_tokens_option
def cluster(
    path: str,
    fmt: Optional[str],
    cohesion: float,
    distinctiveness: float,
    alpha: float,
    output_format: str,
    trace: bool,
    with_title_tokens: bool,
) -> None:
    """Cluster a corpus and print the concept field report."""
    # thresholds are checked before the input is read
    try:
        params = Parameters(cohesion, distinctiveness, alpha)
    except ParameterError as exc:
        raise click.UsageError(str(exc)) from exc
    corpus = _load_corpus(path, fmt, with_title_tokens)
    on_action = None
    if trace:
        def on_action(field, step):  # noqa: ANN001
            click.echo(f"[trace] {description.describe_step(step, corpus)}", err=True)
    result = engine.run(corpus, params, on_action=on_action)
    for warning in result.warnings:
        click.echo(f"warning: {warning}", err=True)
    if output_format == "json":
        click.echo(dataio.emit_json(result), nl=False)
    else:
        click.echo(result.report, nl=False)


@main.command()
@_input_option
@_format_option
@click.option(
    "--rule", "rule_spec", default=None, metavar="M:LABEL[,LABEL...]",
    help='Polymorphous query, e.g. "2:circular,symmetric,black".',
)
@click.option("--seed", "seed_label", default=None, help="Seed object label.")
@click.option("--top", default=5, show_default=True, help="Result count for --seed.")
@_title_tokens_option
def query(
    path: str,
    fmt: Optional[str],
    rule_spec: Optional[str],
    seed_label: Optional[str],
    top: int,
    with_title_tokens: bool,
) -> None:
    """Retrieve objects by an m-of-n rule or by affinity to a seed object."""
    if (rule_spec is None) == (seed_label is None):
        raise click.UsageError("pass exactly one of --rule or --seed")
    # flags are checked before the input is read; labels need the corpus
    if rule_spec is not None:
        m_text, sep, label_text = rule_spec.partition(":")
        labels = [part.strip() for part in label_text.split(",") if part.strip()]
        if not sep or not labels:
            raise click.UsageError('--rule must look like "2:labelA,labelB,labelC"')
        try:
            m = int(m_text)
        except ValueError:
            raise click.UsageError(f"--rule count {m_text!r} is not an integer") from None
    elif top < 1:
        raise click.UsageError(f"--top must be positive, got {top}")
    corpus = _load_corpus(path, fmt, with_title_tokens)
    if rule_spec is not None:
        try:
            q = retrieval.PolymorphousQuery.resolve(corpus, m, labels)
        except (ValueError, CorpusError) as exc:
            raise click.UsageError(str(exc)) from exc
        for obj_id in retrieval.retrieve(corpus, q):
            obj = corpus.objects[obj_id]
            click.echo(f"{obj.label}\t{obj.count(q.feature_set)}/{q.m} of {len(q.feature_set)}")
        return
    try:
        seed = corpus.object_by_label(seed_label).id
    except CorpusError as exc:
        raise click.UsageError(str(exc)) from exc
    for obj_id, aff in retrieval.retrieve_by_seed(corpus, seed, top):
        click.echo(f"{corpus.objects[obj_id].label}\t{aff:.6f}")


@main.command()
@_input_option
@_format_option
def info(path: str, fmt: Optional[str]) -> None:
    """Dump per-object entropies and the pairwise affinity matrix."""
    corpus = _load_corpus(path, fmt)
    width = len(corpus.space)
    click.echo(f"objects: {len(corpus)}  features: {width}")
    click.echo("entropy (bits) per object:")
    for obj in corpus.objects:
        h = information.row_entropy(obj.ones, width)
        click.echo(f"  {obj.label}\t{h:.6f}\t({obj.ones} of {width} features)")
    click.echo("affinity (bits):")
    matrix = engine.affinity_matrix(corpus)
    for obj in corpus.objects:
        row = " ".join(f"{matrix[obj.id][j]:.6f}" for j in range(len(corpus)))
        click.echo(f"  {obj.label}\t{row}")


if __name__ == "__main__":
    main()
