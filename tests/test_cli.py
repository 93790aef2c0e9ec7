"""End-to-end CLI behavior: subcommands, exit codes, output stability."""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations

import pytest
from click.testing import CliRunner

from polyclust import datasets, retrieval
from polyclust.cli import main
from polyclust.model import Corpus, Parameters

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            *(
                pytest.param(flag, value, f"{name} {float(value)} outside [0, 1]",
                             id=f"{flag[2:]}={value}")
                for flag, name in (
                    ("--cohesion", "cohesion_threshold"),
                    ("--distinctiveness", "distinctiveness_threshold"),
                )
                for value in ("-0.1", "1.5", "nan", "inf")
            ),
            *(
                pytest.param("--alpha", value, f"rule_alpha {float(value)} outside (0, 1]",
                             id=f"alpha={value}")
                for value in ("0", "-1", "1.5", "nan")
            ),
            # the closed ends are in range, so the missing input is read and fails
            *(
                pytest.param(flag, value, None, id=f"{flag[2:]}={value}")
                for flag in ("--cohesion", "--distinctiveness")
                for value in ("0", "1")
            ),
            pytest.param("--alpha", "1", None, id="alpha=1"),
        ],
    )
    def test_thresholds_checked_by_parameters_before_input(self, runner, flag, value, message):
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["cluster", "--input", "missing.csv", flag, value])
        if message is None:
            assert result.exit_code == 1
            assert "cannot read missing.csv" in result.output
        else:
            assert result.exit_code == 2
            assert message in result.output
            assert "cannot read" not in result.output

    @pytest.mark.parametrize(
        "option, field",
        [
            ("cohesion", "cohesion_threshold"),
            ("distinctiveness", "distinctiveness_threshold"),
            ("alpha", "rule_alpha"),
        ],
    )
    def test_threshold_default_is_that_of_parameters(self, option, field):
        (param,) = [p for p in main.commands["cluster"].params if p.name == option]
        assert param.default == getattr(Parameters(), field)

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

    def test_rule_answer_order_on_shapes(self, runner, shapes_file):
        result = runner.invoke(
            main, ["query", "--input", shapes_file, "--rule", "1:circular,symmetric,black"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "csb\t3/1 of 3",
            "csw\t2/1 of 3", "cab\t2/1 of 3", "qsb\t2/1 of 3",
            "caw\t1/1 of 3", "qsw\t1/1 of 3", "qab\t1/1 of 3",
        ]

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seed", "a", "--top", "0"], "--top must be positive, got 0"),
            (["--seed", "a", "--top", "-3"], "--top must be positive, got -3"),
            (["--rule", "abc"], '--rule must look like "2:labelA,labelB,labelC"'),
            (["--rule", "2:"], '--rule must look like "2:labelA,labelB,labelC"'),
            (["--rule", "2: , ,"], '--rule must look like "2:labelA,labelB,labelC"'),
            (["--rule", "x:a,b"], "--rule count 'x' is not an integer"),
            (["--rule", "1.5:a,b"], "--rule count '1.5' is not an integer"),
        ],
    )
    def test_bad_flag_exits_2_before_the_input_is_read(self, runner, argv, message):
        result = runner.invoke(main, ["query", "--input", "missing.csv", *argv])
        assert result.exit_code == 2
        assert message in result.output
        assert "cannot read" not in result.output

    @pytest.mark.parametrize(
        "argv", [["--seed", "a", "--top", "3"], ["--rule", "1:a"], ["--rule", "1:a", "--top", "0"]]
    )
    def test_good_flags_with_a_missing_input_exit_1(self, runner, argv):
        result = runner.invoke(main, ["query", "--input", "missing.csv", *argv])
        assert result.exit_code == 1
        assert "cannot read missing.csv" in result.output

    def test_unknown_label_exits_2_and_names_it(self, runner, toy_file):
        result = runner.invoke(
            main, ["query", "--input", toy_file, "--rule", "1:zebra"]
        )
        assert result.exit_code == 2
        assert "zebra" in result.output

    def test_label_ambiguous_under_case_folding_exits_2_and_names_both(self, runner, tmp_path):
        path = tmp_path / "topics.csv"
        path.write_text("label,topic\nd0,Visual\nd1,VISUAL\nd2,audio\n", encoding="utf-8")
        result = runner.invoke(main, ["query", "--input", str(path), "--rule", "1:visual"])
        assert result.exit_code == 2
        assert "ambiguous feature label 'visual': matches 'Visual', 'VISUAL'" in result.output

    def test_display_label_two_features_share_exits_2(self, runner, tmp_path):
        path = tmp_path / "shared.csv"
        path.write_text("a=b,a,x\nc,b=c,c\nd,e,b=c\n", encoding="utf-8")
        result = runner.invoke(main, ["query", "--input", str(path), "--rule", "1:a=b=c"])
        assert result.exit_code == 2
        assert "ambiguous feature label 'a=b=c': matches ('a=b', 'c'), ('a', 'b=c')" in result.output
        unique = runner.invoke(main, ["query", "--input", str(path), "--rule", "1:x=b=c"])
        assert unique.exit_code == 0
        assert unique.output == "row2\t1/1 of 1\n"

    def test_labels_that_collide_once_qualified_resolve_each_to_its_feature(self, runner, tmp_path):
        path = tmp_path / "shared.csv"
        path.write_text("x,y,x=b,x=b=x=b\nb,b,x=b,x=b=x=b\nc,c,z,z\n", encoding="utf-8")
        for rule, row in (("1:x=b=x=b", "row1"), ("1:x=b=x=b=x=b=x=b", "row1"), ("1:x=b=z", "row2")):
            result = runner.invoke(main, ["query", "--input", str(path), "--rule", rule])
            assert result.exit_code == 0, result.output
            assert result.output == f"{row}\t1/1 of 1\n"

    def test_attribute_value_form_two_features_share_exits_2(self, runner, tmp_path):
        path = tmp_path / "forms.csv"
        path.write_text("x,x=b\nb=c,c\nd,e\n", encoding="utf-8")
        result = runner.invoke(main, ["query", "--input", str(path), "--rule", "1:x=b=c"])
        assert result.exit_code == 2
        assert "ambiguous feature label 'x=b=c': matches 'b=c', 'c'" in result.output
        assert "\t" not in result.output
        for rule, row in (("1:b=c", "row1"), ("1:c", "row1"), ("1:x=b=e", "row2")):
            result = runner.invoke(main, ["query", "--input", str(path), "--rule", rule])
            assert (result.exit_code, result.output) == (0, f"{row}\t1/1 of 1\n"), rule

    def test_unknown_seed_exits_2(self, runner, toy_file):
        result = runner.invoke(
            main, ["query", "--input", toy_file, "--seed", "d99"]
        )
        assert result.exit_code == 2


class TestRetrievalCallsGoThroughModuleAttributes:
    """The benchmark's tracer wraps these retrieval attributes to time each layer.

    A refactor that bypassed one (a local alias, or a second path that
    answers without it) would leave the answers unchanged and silently
    blind the per-layer metrics.
    """

    def test_every_wrapped_attribute_is_called(self, monkeypatch, runner, abstracts_file):
        calls: Counter[str] = Counter()
        answers: dict[str, object] = {}
        for owner, name in (
            (retrieval.PolymorphousQuery, "resolve"),
            (retrieval, "retrieve"),
            (retrieval, "retrieve_by_seed"),
        ):

            def counting(*args, _name=name, _original=getattr(owner, name), **kwargs):
                calls[_name] += 1
                answers[_name] = _original(*args, **kwargs)
                return answers[_name]

            wrapped = staticmethod(counting) if isinstance(owner, type) else counting
            monkeypatch.setattr(owner, name, wrapped)
        base = ["query", "--input", abstracts_file, "--format", "refer"]
        rule = runner.invoke(main, [*base, "--rule", "1:VISUAL SEARCH"])
        seed = runner.invoke(main, [*base, "--seed", "abstract 4", "--top", "3"])
        assert rule.exit_code == 0 and seed.exit_code == 0
        assert set(calls) == {"resolve", "retrieve", "retrieve_by_seed"}
        corpus = datasets.abstracts_corpus()
        assert {corpus.objects[i].label for i in answers["retrieve"]} == {
            "abstract 4",
            "abstract 6",
        }
        top_id, top_affinity = answers["retrieve_by_seed"][0]
        assert corpus.objects[top_id].label == "abstract 6"
        assert top_affinity == pytest.approx(0.000280471, abs=1e-9)
        assert seed.output.splitlines()[0] == "abstract 6\t0.000280"


class TestInfo:
    def test_dumps_entropies_and_affinities(self, runner, shapes_file):
        """The whole output on shapes.csv: every entropy line and the full 8x8 matrix."""
        result = runner.invoke(main, ["info", "--input", shapes_file])
        assert result.exit_code == 0
        z, a = "0.000000", "0.081704"
        assert result.output.splitlines() == [
            "objects: 8  features: 6",
            "entropy (bits) per object:",
            *(
                f"  {label}\t1.000000\t(3 of 6 features)"
                for label in ("csb", "csw", "cab", "caw", "qsb", "qsw", "qab", "qaw")
            ),
            "affinity (bits):",
            f"  csb\t{z} {a} {a} {z} {a} {z} {z} {z}",
            f"  csw\t{a} {z} {z} {a} {z} {a} {z} {z}",
            f"  cab\t{a} {z} {z} {a} {z} {z} {a} {z}",
            f"  caw\t{z} {a} {a} {z} {z} {z} {z} {a}",
            f"  qsb\t{a} {z} {z} {z} {z} {a} {a} {z}",
            f"  qsw\t{z} {a} {z} {z} {a} {z} {z} {a}",
            f"  qab\t{z} {z} {a} {z} {a} {z} {z} {a}",
            f"  qaw\t{z} {z} {z} {a} {z} {a} {a} {z}",
        ]

    def test_matrix_format(self, runner, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text("a,1,1,0,0\nb,1,1,0,0\nc,0,0,1,1\n", encoding="utf-8")
        result = runner.invoke(main, ["info", "--input", str(path)])
        assert result.exit_code == 0
        assert "objects: 3  features: 4" in result.output


BOM_CASES = {
    "csv": (
        datasets.shapes_text(),
        ["--cohesion", "0.05", "--distinctiveness", "0.05"],
        ["--rule", "2:circular,symmetric,black"],
        ["--seed", "csb", "--top", "3"],
    ),
    "ref": (
        datasets.abstracts_text(),
        ["--cohesion", "0.004", "--distinctiveness", "0.002"],
        ["--rule", "1:VISUAL SEARCH"],
        ["--seed", "abstract 1", "--top", "3"],
    ),
    "matrix": (
        "a,1,1,0,0\nb,1,1,0,1\nc,0,0,1,1\nd,0,1,1,1\n",
        ["--cohesion", "0.05", "--distinctiveness", "0.05"],
        ["--rule", "2:f0,f1,f3"],
        ["--seed", "a", "--top", "2"],
    ),
}


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads like the same file without it."""

    @pytest.mark.parametrize("suffix", list(BOM_CASES))
    @pytest.mark.parametrize("command", ["cluster", "rule", "seed", "info"])
    def test_output_byte_identical(self, runner, tmp_path, suffix, command):
        text, cluster_args, rule_args, seed_args = BOM_CASES[suffix]
        argv = {
            "cluster": ["cluster", *cluster_args],
            "rule": ["query", *rule_args],
            "seed": ["query", *seed_args],
            "info": ["info"],
        }[command]
        results = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / name / f"corpus.{suffix}"
            path.parent.mkdir()
            path.write_bytes(prefix + text.encode("utf-8"))
            results.append(runner.invoke(main, [*argv, "--input", str(path)]))
        plain, bom = results
        assert plain.exit_code == 0, plain.output
        assert (bom.exit_code, bom.stdout_bytes, bom.stderr_bytes) == (
            plain.exit_code, plain.stdout_bytes, plain.stderr_bytes
        )


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

    @pytest.mark.parametrize(
        "argv",
        [["cluster"], ["query", "--rule", "1:x"], ["info"]],
        ids=["cluster", "query-rule", "info"],
    )
    @pytest.mark.parametrize(
        "text", ["a,a\nx,y\nz,w\n", "a,a\nx,y\ny,x\n"], ids=["distinct-cells", "shared-cells"]
    )
    def test_attribute_named_twice_exits_1(self, runner, tmp_path, argv, text):
        path = tmp_path / "twice.csv"
        path.write_text(text, encoding="utf-8")
        result = runner.invoke(main, [*argv, "--input", str(path)])
        assert result.exit_code == 1
        assert result.output == "Error: attribute 'a' is named more than once in the header\n"

    def test_cluster_validates_the_corpus_once(
        self, runner, shapes_file, duplicate_file, monkeypatch
    ):
        calls = []
        check = Corpus.__post_init__

        def counting(corpus):
            calls.append(corpus)
            check(corpus)

        # every corpus checks itself when built, and one cluster run builds one
        monkeypatch.setattr(Corpus, "__post_init__", counting)
        result = runner.invoke(main, ["cluster", "--input", shapes_file])
        assert result.exit_code == 0
        assert len(calls) == 1
        failed = runner.invoke(main, ["cluster", "--input", duplicate_file])
        assert failed.exit_code == 1
        assert "duplicate label 'a' (objects 0 and 2)" in failed.output

    @pytest.mark.parametrize(
        "argv",
        [["cluster"], ["query", "--rule", "1:a"], ["query", "--seed", "x"], ["info"]],
        ids=["cluster", "query-rule", "query-seed", "info"],
    )
    def test_input_that_is_not_utf8_exits_1(self, runner, tmp_path, argv):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b\n\xff\xfe,1\n")
        result = runner.invoke(main, [*argv, "--input", str(path)])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
            "in position 4: invalid start byte\n"
        )

    def test_constant_feature_warned_once_by_cluster_only(self, runner, tmp_path):
        path = tmp_path / "const.matrix"
        path.write_text("a,1,0,1\nb,1,1,0\nc,1,1,1\n", encoding="utf-8")
        clustered = runner.invoke(main, ["cluster", "--input", str(path)])
        assert clustered.exit_code == 0
        assert clustered.output.count("warning: feature 0 constant") == 1
        dumped = runner.invoke(main, ["info", "--input", str(path)])
        assert dumped.exit_code == 0
        assert "warning" not in dumped.output
