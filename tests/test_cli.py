import codecs
import json
import shutil
from pathlib import Path

import pytest

from causet.cli import main
from causet.frame import load_csv, write_csv
from causet.synth import generate

SAMPLES = Path(__file__).resolve().parents[1] / "sample_queries"

GRAPH = """
x0 -> w; x0 -> y
x1 -> w; x1 -> y
x2 -> w; x2 -> y
x3 -> w; x3 -> y
x4 -> w; x4 -> y
w -> y
@treatment w
@outcome y
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    ss = generate(n=400, sigma=1.0, seed=3)
    frame = ss.to_frame()
    for drop in ("tau_true", "e_true", "b_true"):
        frame = frame.drop(drop)
    write_csv(frame, d / "data.csv")
    (d / "model.graph").write_text(GRAPH, encoding="utf-8")
    (d / "query.spec").write_text(
        "name = demo\n"
        "data = data.csv\n"
        "graph = model.graph\n"
        "treatment = w\n"
        "outcome = y\n"
        "estimators = regression_adjustment, ipw\n"
        "metalearners = T:linear\n"
        "refuters = placebo_treatment\n"
        "refuter_repetitions = 4\n"
        "seed = 11\n",
        encoding="utf-8",
    )
    return d


class TestSynthCommand:
    def test_writes_csv(self, tmp_path, capsys):
        rc = main(["synth", "--n", "50", "--seed", "4", "--out", str(tmp_path)])
        assert rc == 0
        f = load_csv(tmp_path / "synthetic.csv")
        assert f.n_rows == 50
        assert "tau_true" in f.names
        assert "synthetic.csv" in capsys.readouterr().out

    def test_machine_format(self, tmp_path, capsys):
        rc = main(["synth", "--n", "10", "--seed", "1", "--out", str(tmp_path),
                   "--format", "machine"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["n"] == 10 and blob["seed"] == 1


class TestEstimateCommand:
    def test_report_and_table(self, workdir, tmp_path, capsys):
        rc = main(["estimate", str(workdir / "query.spec"), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "regression_adjustment" in out and "T:linear" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["effects"]) == 3
        assert report["refutations"] == []  # estimate strips refuters

    def test_byte_identical_across_runs(self, workdir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["estimate", str(workdir / "query.spec"), "--out", str(a)]) == 0
        assert main(["estimate", str(workdir / "query.spec"), "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "effects.csv").read_bytes() == (b / "effects.csv").read_bytes()

    def test_seed_flag_overrides(self, workdir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["estimate", str(workdir / "query.spec"), "--out", str(a), "--seed", "99"])
        report = json.loads((a / "report.json").read_text())
        assert report["query"]["seed"] == 99

    def test_env_seed_fallback(self, workdir, tmp_path, monkeypatch):
        spec = (workdir / "noseed.spec")
        spec.write_text(
            (workdir / "query.spec").read_text().replace("seed = 11\n", ""),
            encoding="utf-8",
        )
        monkeypatch.setenv("CAUSET_SEED", "123")
        main(["estimate", str(spec), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["query"]["seed"] == 123

    def test_spec_seed_outranks_env_seed(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUSET_SEED", "123")
        main(["estimate", str(workdir / "query.spec"), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["query"]["seed"] == 11

    def test_bad_env_seed_ignored_when_flag_decides(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUSET_SEED", "abc")
        assert main(["estimate", str(workdir / "query.spec"), "--out", str(tmp_path),
                     "--seed", "3"]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["query"]["seed"] == 3

    def test_bad_env_seed_ignored_when_spec_decides(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUSET_SEED", "abc")
        assert main(["estimate", str(workdir / "query.spec"), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["query"]["seed"] == 11

    def test_bad_env_seed_fails_when_it_decides(self, workdir, tmp_path, monkeypatch, capsys):
        spec = workdir / "noseed.spec"
        spec.write_text(
            (workdir / "query.spec").read_text().replace("seed = 11\n", ""),
            encoding="utf-8",
        )
        monkeypatch.setenv("CAUSET_SEED", "abc")
        assert main(["estimate", str(spec), "--out", str(tmp_path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"] == "CAUSET_SEED must be an integer, got 'abc'"

    def test_machine_output_parses(self, workdir, tmp_path, capsys):
        rc = main(["estimate", str(workdir / "query.spec"), "--out", str(tmp_path),
                   "--format", "machine"])
        assert rc == 0
        stdout = capsys.readouterr().out
        payload = stdout[: stdout.rindex("report:")]
        assert json.loads(payload)["kind"] == "query"
        assert payload == (tmp_path / "report.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("y_cells", [["a", "b", "c", "d"], ["a", "", "c", "d"]],
                             ids=["full", "with_missing_cell"])
    def test_text_outcome_is_a_kind_error(self, tmp_path, capsys, y_cells):
        rows = [f"{x},{w},{y}" for x, w, y in zip("1234", "0101", y_cells)]
        (tmp_path / "text.csv").write_text("x,w,y\n" + "\n".join(rows) + "\n")
        (tmp_path / "text.graph").write_text("x -> w; x -> y; w -> y\n@treatment w\n@outcome y\n")
        (tmp_path / "text.spec").write_text(
            "data = text.csv\ngraph = text.graph\ntreatment = w\noutcome = y\n")
        assert main(["estimate", str(tmp_path / "text.spec"), "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "KindError"
        assert err["message"] == "outcome 'y' is categorical; it must be numeric or binary"

    def test_outcome_with_no_values_is_a_missing_data_error(self, tmp_path, capsys):
        rows = [f"{i % 7},{i % 2}," for i in range(40)]
        (tmp_path / "empty.csv").write_text("x,w,y\n" + "\n".join(rows) + "\n")
        (tmp_path / "empty.graph").write_text("x -> w; x -> y; w -> y\n@treatment w\n@outcome y\n")
        (tmp_path / "empty.spec").write_text(
            "data = empty.csv\ngraph = empty.graph\ntreatment = w\noutcome = y\n")
        out = tmp_path / "out"
        assert main(["estimate", str(tmp_path / "empty.spec"), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "MissingDataError"
        assert err["message"] == "outcome 'y' has no values"
        assert not (out / "report.json").exists()


class TestRefuteCommand:
    def test_runs_refuters_against_first_estimator(self, workdir, tmp_path, capsys):
        rc = main(["refute", str(workdir / "query.spec"), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "refutation_report.json").read_text())
        assert [r["refuter"] for r in report["refutations"]] == ["placebo_treatment"]
        assert len(report["effects"]) == 1
        assert report["effects"][0]["method"] == "regression_adjustment"
        assert "placebo_treatment" in capsys.readouterr().out

    def test_defaults_to_all_refuters(self, workdir, tmp_path):
        spec = workdir / "norefuters.spec"
        spec.write_text(
            (workdir / "query.spec").read_text().replace(
                "refuters = placebo_treatment\n", ""),
            encoding="utf-8",
        )
        main(["refute", str(spec), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "refutation_report.json").read_text())
        assert len(report["refutations"]) == 4


class TestValidateCommand:
    def test_small_run(self, tmp_path, capsys):
        rc = main(["validate", "--n", "300", "--repetitions", "1", "--seed", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "validation_report.json").read_text())
        assert len(report["rows"]) == 8
        assert "T:gbt" in capsys.readouterr().out

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["validate", "--n", "300", "--repetitions", "2", "--seed", "6"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "validation_report.json").read_bytes() == (
            b / "validation_report.json").read_bytes()


class TestCompareCommand:
    def test_compare_two_reports(self, workdir, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["estimate", str(workdir / "query.spec"), "--out", str(a)])
        main(["estimate", str(workdir / "query.spec"), "--out", str(b), "--seed", "12"])
        capsys.readouterr()
        rc = main(["compare", str(a / "report.json"), str(b / "report.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("demo") >= 6
        rc = main(["compare", str(a / "report.json"), "--format", "machine",
                   "--out", str(tmp_path / "c")])
        assert rc == 0
        assert capsys.readouterr().out == (tmp_path / "c" / "comparison.json").read_text(
            encoding="utf-8")

    def test_missing_report_errors(self, tmp_path, capsys):
        rc = main(["compare", str(tmp_path / "absent.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "CausetError"

    def test_report_not_an_object_errors(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["compare", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "CausetError"
        assert str(path) in err["message"]

    def test_effect_row_without_method_errors(self, workdir, tmp_path, capsys):
        assert main(["estimate", str(workdir / "query.spec"), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "report.json").read_text())
        del report["effects"][0]["method"]
        path = tmp_path / "no_method.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["compare", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "SchemaMismatchError"
        assert "'method'" in err["message"]

    @pytest.mark.parametrize("part, value, message", [
        ("query", [], "key 'query' must be an object"),
        ("effects", 3, "key 'effects' must be a list"),
        ("refutations", 5, "key 'refutations' must be a list"),
        ("refutations", [{"target_method": ["ipw"], "refuter": "placebo_treatment",
                          "verdict": "pass"}], "key 'target_method' must be a string"),
        ("effects", [{"method": ["ipw"], "estimand": "ATE", "effect": 0.1,
                      "relative_effect": None}], "key 'method' must be a string"),
    ], ids=["query_list", "effects_int", "refutations_int", "target_method_list",
            "method_list"])
    def test_part_of_wrong_json_type_errors(self, workdir, tmp_path, capsys, part, value,
                                            message):
        assert main(["estimate", str(workdir / "query.spec"), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "report.json").read_text())
        report[part] = value
        path = tmp_path / "wrong_type.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["compare", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "SchemaMismatchError"
        assert message in err["message"]


class TestErrorPaths:
    def test_unidentifiable_graph_exits_nonzero(self, workdir, tmp_path, capsys):
        (workdir / "bad.graph").write_text(
            "U -> w; U -> y; w -> y\n@treatment w\n@outcome y\n@unobserved U\n")
        spec = workdir / "bad.spec"
        spec.write_text(
            (workdir / "query.spec").read_text().replace("model.graph", "bad.graph"),
            encoding="utf-8",
        )
        rc = main(["estimate", str(spec), "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NotIdentifiableError"
        assert "backdoor" in err["error"]["message"]

    def test_missing_data_file(self, workdir, tmp_path, capsys):
        spec = workdir / "nodata.spec"
        spec.write_text(
            (workdir / "query.spec").read_text().replace("data.csv", "absent.csv"),
            encoding="utf-8",
        )
        rc = main(["estimate", str(spec), "--out", str(tmp_path)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "IoError"

    @pytest.mark.parametrize("role, old, new", [
        ("treatment", "@treatment w", "@treatment x0"),
        ("outcome", "@outcome y", "@outcome x0"),
    ])
    def test_graph_marks_another_node(self, workdir, tmp_path, capsys, role, old, new):
        (workdir / f"{role}.graph").write_text(GRAPH.replace(old, new), encoding="utf-8")
        spec = workdir / f"{role}.spec"
        spec.write_text(
            (workdir / "query.spec").read_text().replace("model.graph", f"{role}.graph"),
            encoding="utf-8",
        )
        assert main(["estimate", str(spec), "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "RoleError"
        node = old.split()[1]
        assert err["message"] == f"graph does not mark {node!r} as {role}"

    def test_bad_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "broken.spec"
        spec.write_text("what even is this\n")
        rc = main(["estimate", str(spec), "--out", str(tmp_path)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("name, body", [
        # byte 0xff never occurs in UTF-8
        ("latin.csv", b"w,y\n1,0.5\n0,\xff\n"),
        # one quoted field over csv's 131,072-character field limit
        ("long.csv", b'w,y\n1,"' + b"7" * 200_000 + b'"\n'),
        # the same field unquoted, all digits: numpy's C reader would read inf
        ("digits.csv", b"w,y\n1," + b"7" * 200_000 + b"\n"),
    ], ids=["non_utf8", "overlong_field", "overlong_unquoted"])
    def test_unreadable_data_file(self, workdir, tmp_path, capsys, name, body):
        (workdir / name).write_bytes(body)
        spec = workdir / f"{name}.spec"
        spec.write_text(
            (workdir / "query.spec").read_text().replace("data.csv", name),
            encoding="utf-8",
        )
        rc = main(["estimate", str(spec), "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ParseError"
        assert name in err["message"]


class TestByteOrderMark:
    """An input file that starts with a UTF-8 byte-order mark (as Excel and
    Notepad write) reads as the same file without it."""

    @pytest.mark.parametrize("name", ["homes.csv", "windows.graph", "windows.spec"])
    def test_estimate_report_unchanged(self, tmp_path, name):
        work = tmp_path / "queries"
        shutil.copytree(SAMPLES, work)
        spec = str(work / "windows.spec")
        assert main(["estimate", spec, "--out", str(tmp_path / "plain")]) == 0
        path = work / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert main(["estimate", spec, "--out", str(tmp_path / "marked")]) == 0
        report = "report.json"
        assert (tmp_path / "marked" / report).read_bytes() == (
            tmp_path / "plain" / report).read_bytes()

    def test_compare_reads_a_marked_report(self, workdir, tmp_path, capsys):
        main(["estimate", str(workdir / "query.spec"), "--out", str(tmp_path), "--format",
              "machine"])
        path = tmp_path / "report.json"
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        capsys.readouterr()
        assert main(["compare", str(path)]) == 0
        assert "regression_adjustment" in capsys.readouterr().out


class TestBadFlags:
    """A flag value the library rejects gives exit 1 and the JSON error block."""

    @pytest.mark.parametrize("argv, message", [
        (["validate", "--n", "200", "--repetitions", "0"], "repetitions"),
        (["validate", "--n", "200", "--repetitions", "1", "--sigma", "-1"], "sigma"),
        (["synth", "--n", "10", "--sigma", "-1"], "sigma"),
    ], ids=["validate_repetitions", "validate_sigma", "synth_sigma"])
    def test_value_error(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert message in err["message"]
        assert err["command"] == argv[0]


class TestOsErrors:
    """A file the command cannot write gives exit 1 and the JSON error block."""

    def error_type(self, capsys) -> str:
        return json.loads(capsys.readouterr().err)["error"]["type"]

    def test_sidecar_path_is_a_directory(self, workdir, tmp_path, capsys):
        (tmp_path / "effects.csv").mkdir()
        assert main(["estimate", str(workdir / "query.spec"), "--out", str(tmp_path)]) == 1
        assert self.error_type(capsys) == "IsADirectoryError"

    def test_report_path_is_a_directory(self, workdir, tmp_path, capsys):
        (tmp_path / "report.json").mkdir()
        assert main(["estimate", str(workdir / "query.spec"), "--out", str(tmp_path)]) == 1
        assert self.error_type(capsys) == "IsADirectoryError"

    def test_out_below_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        rc = main(["synth", "--n", "10", "--out", str(tmp_path / "file" / "x")])
        assert rc == 1
        assert self.error_type(capsys) == "NotADirectoryError"


class TestSpecRanges:
    """A spec value outside its range gives exit 1 and the JSON error block,
    naming the key, before any estimator or refuter runs."""

    @pytest.mark.parametrize("command, key, value", [
        ("refute", "refuter_repetitions", "0"),
        ("refute", "propensity_clip", "0.7"),
        ("refute", "subset_fraction", "1.5"),
        ("refute", "confounder_strength_t", "2"),
        ("refute", "confounder_strength_y", "-0.5"),
        ("estimate", "strata", "0"),
    ])
    def test_out_of_range(self, workdir, tmp_path, capsys, command, key, value):
        spec = workdir / f"range_{key}.spec"
        spec.write_text(
            "data = data.csv\n"
            "graph = model.graph\n"
            "treatment = w\n"
            "outcome = y\n"
            "estimators = ipw, stratification\n"
            f"{key} = {value}\n"
            + ("" if key == "refuter_repetitions" else "refuter_repetitions = 4\n"),
            encoding="utf-8",
        )
        assert main([command, str(spec), "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ParseError"
        assert repr(key) in err["message"]
