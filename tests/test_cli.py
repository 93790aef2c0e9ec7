"""End-to-end CLI behavior: subcommands, exit codes, output stability."""

from __future__ import annotations

import json
from itertools import combinations

import pytest
from click.testing import CliRunner

from polyclust import datasets
from polyclust.cli import main

TOY_CSV = """label,a,b,c
d0,,,
d1,a,,
d2,,b,
d3,a,b,
d4,,,c
d5,a,,c
d6,,b,c
d7,a,b,c
"""


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def abstracts_file(tmp_path):
    path = tmp_path / "abstracts.ref"
    path.write_text(datasets.abstracts_text(), encoding="utf-8")
    return str(path)


@pytest.fixture()
def shapes_file(tmp_path):
    path = tmp_path / "shapes.csv"
    path.write_text(datasets.shapes_text(), encoding="utf-8")
    return str(path)


@pytest.fixture()
def toy_file(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV, encoding="utf-8")
    return str(path)


class TestCluster:
    def test_default_run_on_abstracts(self, runner, abstracts_file):
        result = runner.invoke(main, ["cluster", "--input", abstracts_file, "--format", "refer"])
        assert result.exit_code == 0
        assert "no categories formed; 7 objects unclustered" in result.output

    def test_format_inferred_from_suffix(self, runner, shapes_file):
        result = runner.invoke(
            main,
            ["cluster", "--input", shapes_file, "--cohesion", "0.05",
             "--distinctiveness", "0.05"],
        )
        assert result.exit_code == 0
        assert "category 1: 4 members" in result.output
        assert "at least 3 out of {circular, symmetric, asymmetric, black, white}" in result.output

    def test_json_output_parses(self, runner, shapes_file):
        result = runner.invoke(
            main,
            ["cluster", "--input", shapes_file, "--cohesion", "0.05",
             "--distinctiveness", "0.05", "--output", "json"],
        )
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["categories"][0]["members"] == ["csb", "csw", "cab", "caw"]

    def test_byte_identical_output(self, runner, shapes_file):
        args = ["cluster", "--input", shapes_file, "--cohesion", "0.05",
                "--distinctiveness", "0.05", "--output", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_trace_flag_logs_actions(self, runner, shapes_file):
        result = runner.invoke(
            main,
            ["cluster", "--input", shapes_file, "--cohesion", "0.05",
             "--distinctiveness", "0.05", "--trace"],
        )
        assert result.exit_code == 0
        assert "[trace] protoseed {csb, csw}" in result.output

    def test_out_of_range_cohesion_exits_2(self, runner, shapes_file):
        result = runner.invoke(main, ["cluster", "--input", shapes_file, "--cohesion", "1.5"])
        assert result.exit_code == 2

    def test_out_of_range_alpha_exits_2(self, runner, shapes_file):
        result = runner.invoke(main, ["cluster", "--input", shapes_file, "--alpha", "0"])
        assert result.exit_code == 2

    def test_unknown_flag_exits_2(self, runner, shapes_file):
        result = runner.invoke(main, ["cluster", "--input", shapes_file, "--bogus"])
        assert result.exit_code == 2

    def test_missing_file_exits_1(self, runner):
        result = runner.invoke(main, ["cluster", "--input", "nowhere.csv"])
        assert result.exit_code == 1

    def test_malformed_csv_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2,3\n", encoding="utf-8")
        result = runner.invoke(main, ["cluster", "--input", str(bad)])
        assert result.exit_code == 1
        assert "line 2" in result.output

    def test_title_tokens_requires_refer(self, runner, shapes_file):
        result = runner.invoke(
            main, ["cluster", "--input", shapes_file, "--with-title-tokens"]
        )
        assert result.exit_code == 2


class TestQuery:
    def test_rule_matches_truth_table(self, runner, toy_file):
        result = runner.invoke(
            main, ["query", "--input", toy_file, "--rule", "2:a,b,c"]
        )
        assert result.exit_code == 0
        lines = [line.split("\t")[0] for line in result.output.splitlines()]
        assert lines == ["d7", "d3", "d5", "d6"]
        expected = set()
        for row in TOY_CSV.strip().splitlines()[1:]:
            label, *cells = row.split(",")
            bits = [1 if cell else 0 for cell in cells]
            if any(all(bits[i] for i in combo) for combo in combinations(range(3), 2)):
                expected.add(label)
        assert set(lines) == expected

    def test_visual_search_query(self, runner, abstracts_file):
        result = runner.invoke(
            main,
            ["query", "--input", abstracts_file, "--format", "refer",
             "--rule", "1:VISUAL SEARCH"],
        )
        assert result.exit_code == 0
        labels = {line.split("\t")[0] for line in result.output.splitlines()}
        assert labels == {"abstract 4", "abstract 6"}

    def test_seed_retrieval(self, runner, abstracts_file):
        result = runner.invoke(
            main,
            ["query", "--input", abstracts_file, "--format", "refer",
             "--seed", "abstract 4", "--top", "3"],
        )
        assert result.exit_code == 0
        first = result.output.splitlines()[0]
        assert first.startswith("abstract 6\t")

    def test_rule_and_seed_mutually_exclusive(self, runner, toy_file):
        result = runner.invoke(
            main,
            ["query", "--input", toy_file, "--rule", "1:a", "--seed", "d0"],
        )
        assert result.exit_code == 2
        result = runner.invoke(main, ["query", "--input", toy_file])
        assert result.exit_code == 2

    def test_malformed_rule_exits_2(self, runner, toy_file):
        result = runner.invoke(main, ["query", "--input", toy_file, "--rule", "abc"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["query", "--input", toy_file, "--rule", "x:a,b"])
        assert result.exit_code == 2

    def test_unknown_label_exits_2_and_names_it(self, runner, toy_file):
        result = runner.invoke(
            main, ["query", "--input", toy_file, "--rule", "1:zebra"]
        )
        assert result.exit_code == 2
        assert "zebra" in result.output

    def test_unknown_seed_exits_2(self, runner, toy_file):
        result = runner.invoke(
            main, ["query", "--input", toy_file, "--seed", "d99"]
        )
        assert result.exit_code == 2


class TestInfo:
    def test_dumps_entropies_and_affinities(self, runner, shapes_file):
        result = runner.invoke(main, ["info", "--input", shapes_file])
        assert result.exit_code == 0
        assert "objects: 8  features: 6" in result.output
        assert "affinity (bits):" in result.output
        assert "csb\t1.000000" in result.output

    def test_matrix_format(self, runner, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text("a,1,1,0,0\nb,1,1,0,0\nc,0,0,1,1\n", encoding="utf-8")
        result = runner.invoke(main, ["info", "--input", str(path)])
        assert result.exit_code == 0
        assert "objects: 3  features: 4" in result.output


DUPLICATE_LABEL_MATRIX = "a,1,1,0,0\nb,1,1,0,1\na,1,1,0,0\nc,0,0,1,1\n"


class TestCorpusValidation:
    """Every subcommand enforces the corpus invariants with the same exit code."""

    @pytest.fixture()
    def duplicate_file(self, tmp_path):
        path = tmp_path / "dup.matrix"
        path.write_text(DUPLICATE_LABEL_MATRIX, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--seed", "a"],
            ["query", "--rule", "1:f0,f3"],
            ["info"],
            ["cluster"],
        ],
        ids=["query-seed", "query-rule", "info", "cluster"],
    )
    def test_duplicate_label_exits_1(self, runner, duplicate_file, argv):
        result = runner.invoke(main, [*argv, "--input", duplicate_file])
        assert result.exit_code == 1
        assert "duplicate label 'a' (objects 0 and 2)" in result.output
        # nothing is listed or dumped before the error
        assert "\t" not in result.output

    def test_constant_feature_warned_once_by_cluster_only(self, runner, tmp_path):
        path = tmp_path / "const.matrix"
        path.write_text("a,1,0,1\nb,1,1,0\nc,1,1,1\n", encoding="utf-8")
        clustered = runner.invoke(main, ["cluster", "--input", str(path)])
        assert clustered.exit_code == 0
        assert clustered.output.count("warning: feature 0 constant") == 1
        dumped = runner.invoke(main, ["info", "--input", str(path)])
        assert dumped.exit_code == 0
        assert "warning" not in dumped.output
