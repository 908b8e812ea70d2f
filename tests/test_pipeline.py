import dataclasses
import json

import numpy as np
import pytest

from causet import pipeline
from causet.errors import NotIdentifiableError, ParseError, SchemaMismatchError
from causet.frame import write_csv
from causet.pipeline import (
    QuerySpec,
    compare_report,
    parse_query_spec,
    render_table,
    report_to_json,
    run_query,
    run_validation,
)
from causet.synth import generate

GRAPH = """
# every covariate confounds treatment and outcome
x0 -> w; x0 -> y
x1 -> w; x1 -> y
x2 -> w; x2 -> y
x3 -> w; x3 -> y
x4 -> w; x4 -> y
w -> y
@treatment w
@outcome y
"""

SPEC_TEMPLATE = """
name = synthetic_demo
data = {data}
graph = {graph}
treatment = w
outcome = y
estimators = regression_adjustment, psm, ipw, stratification
metalearners = S:linear, S:gbt, T:linear, T:gbt, X:linear, X:gbt, R:linear, R:gbt
seed = 42
refuter_repetitions = 5
"""


@pytest.fixture(scope="module")
def query_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("query")
    ss = generate(n=600, sigma=1.0, seed=9)
    frame = ss.to_frame()
    for drop in ("tau_true", "e_true", "b_true"):
        frame = frame.drop(drop)
    write_csv(frame, d / "data.csv")
    (d / "model.graph").write_text(GRAPH, encoding="utf-8")
    (d / "query.spec").write_text(
        SPEC_TEMPLATE.format(data="data.csv", graph="model.graph"), encoding="utf-8"
    )
    return d


class TestQuerySpec:
    def test_parse_resolves_paths_and_defaults(self, query_dir):
        spec = parse_query_spec(query_dir / "query.spec")
        assert spec.name == "synthetic_demo"
        assert spec.data.endswith("data.csv")
        assert spec.seed == 42
        assert spec.estimators == ("regression_adjustment", "psm", "ipw", "stratification")
        assert ("T", "gbt") in spec.metalearners
        assert spec.refuters == ()
        assert spec.strata == 5

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_text("data=a\ngraph=b\ntreatment=t\noutcome=y\nbogus=1\n")
        with pytest.raises(ParseError):
            parse_query_spec(p)

    def test_unknown_tokens_rejected(self):
        with pytest.raises(ParseError):
            QuerySpec(data="d", graph="g", treatment="t", outcome="y",
                      estimators=("magic",))
        with pytest.raises(ParseError):
            QuerySpec(data="d", graph="g", treatment="t", outcome="y",
                      metalearners=(("Q", "linear"),))

    def test_needs_some_method(self):
        with pytest.raises(ParseError):
            QuerySpec(data="d", graph="g", treatment="t", outcome="y",
                      estimators=(), metalearners=())

    def test_label_rule_lines(self, tmp_path):
        p = tmp_path / "r.spec"
        p.write_text(
            "data=a.csv\ngraph=g\ntreatment=hi\noutcome=y\n"
            "label_rule = hi from raw\nlabel_rule = hy from other\n"
        )
        spec = parse_query_spec(p)
        assert [(r.source, r.target) for r in spec.label_rules] == [
            ("raw", "hi"), ("other", "hy")]


@pytest.fixture(scope="module")
def report(query_dir, tmp_path_factory):
    spec = parse_query_spec(query_dir / "query.spec")
    out = tmp_path_factory.mktemp("out")
    return run_query(spec, out_dir=out), out


class TestRunQuery:
    def test_twelve_effect_rows(self, report):
        rep, _ = report
        assert len(rep["effects"]) == 12
        methods = [r["method"] for r in rep["effects"]]
        assert methods[:4] == ["regression_adjustment", "psm", "ipw", "stratification"]
        assert "T:gbt" in methods

    def test_adjustment_set_identified(self, report):
        rep, _ = report
        assert rep["adjustment_set"] == ["x0", "x1", "x2", "x3", "x4"]

    def test_relative_effects_present(self, report):
        rep, _ = report
        for row in rep["effects"]:
            assert row["relative_effect"] == pytest.approx(
                row["effect"] / rep["control_outcome_mean"]
            )

    def test_plot_files_written(self, report):
        rep, out = report
        assert (out / "effects.csv").exists()
        text = (out / "effects.csv").read_text()
        assert text.splitlines()[0] == "method,effect,relative_effect"
        assert (out / "ite_T-gbt.csv").exists()
        ite = (out / "ite_T-gbt.csv").read_text().splitlines()
        assert ite[0] == "row,ite"
        assert len(ite) == 601

    def test_resolved_spec_embedded(self, report):
        rep, _ = report
        q = rep["query"]
        assert q["seed"] == 42
        assert q["propensity_clip"] == 0.05
        assert q["strata"] == 5
        assert q["metalearners"][0] == "S:linear"

    def test_deterministic_documents(self, query_dir, tmp_path):
        spec = parse_query_spec(query_dir / "query.spec")
        a = run_query(spec, out_dir=tmp_path / "a")
        b = run_query(spec, out_dir=tmp_path / "b")
        assert report_to_json(a) == report_to_json(b)

    def test_not_identifiable_fails_fast(self, query_dir, tmp_path):
        graph = "U -> w; U -> y; w -> y\n@treatment w\n@outcome y\n@unobserved U\n"
        (tmp_path / "bad.graph").write_text(graph)
        spec = parse_query_spec(query_dir / "query.spec")
        spec = dataclasses.replace(spec, graph=str(tmp_path / "bad.graph"))
        with pytest.raises(NotIdentifiableError):
            run_query(spec)

    def test_refuters_run_against_first_estimator(self, query_dir, tmp_path):
        spec = parse_query_spec(query_dir / "query.spec")
        spec = dataclasses.replace(
            spec,
            estimators=("regression_adjustment",),
            metalearners=(),
            refuters=("placebo_treatment", "data_subset"),
        )
        rep = run_query(spec, out_dir=tmp_path)
        assert [r["refuter"] for r in rep["refutations"]] == [
            "placebo_treatment", "data_subset"]
        assert all(r["target_method"] == "regression_adjustment"
                   for r in rep["refutations"])
        assert all(r["repetitions"] == 5 for r in rep["refutations"])
        assert (tmp_path / "refutations.csv").exists()


def count_calls(monkeypatch, name):
    """Wrap ``pipeline.<name>`` in a counting wrapper; return the call list."""
    calls = []
    original = getattr(pipeline, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, wrapper)
    return calls


class TestDispatchTables:
    """The tables look functions up by module name when called, and the
    propensity model is fitted once per query and once per refuted frame."""

    def spec(self, query_dir, **changes):
        spec = parse_query_spec(query_dir / "query.spec")
        return dataclasses.replace(spec, **{"metalearners": (), **changes})

    @pytest.mark.parametrize("method, name", [
        ("regression_adjustment", "regression_adjustment"),
        ("psm", "psm_att"),
        ("ipw", "ipw_ate"),
        ("stratification", "stratified_ate"),
    ])
    def test_estimators_called_by_module_name(self, query_dir, monkeypatch, method, name):
        calls = count_calls(monkeypatch, name)
        run_query(self.spec(query_dir, estimators=(method,)))
        assert calls == [name]

    @pytest.mark.parametrize("refuter, name", [
        ("random_common_cause", "refute_random_common_cause"),
        ("placebo_treatment", "refute_placebo"),
        ("data_subset", "refute_subset"),
        ("unobserved_confounder", "refute_unobserved_confounder"),
    ])
    def test_refuters_called_by_module_name(self, query_dir, monkeypatch, refuter, name):
        calls = count_calls(monkeypatch, name)
        spec = self.spec(query_dir, estimators=("regression_adjustment",),
                         refuters=(refuter,), refuter_repetitions=2)
        run_query(spec)
        assert calls == [name]

    def test_one_propensity_fit_shared_by_query(self, query_dir, monkeypatch):
        fits = count_calls(monkeypatch, "fit_propensity")
        run_query(self.spec(query_dir, estimators=("psm", "ipw"),
                            metalearners=(("X", "linear"),)))
        assert len(fits) == 1

    def test_no_propensity_fit_when_unused(self, query_dir, monkeypatch):
        fits = count_calls(monkeypatch, "fit_propensity")
        run_query(self.spec(query_dir, estimators=("regression_adjustment",),
                            metalearners=(("S", "linear"), ("T", "linear"))))
        assert fits == []

    def test_refuter_refits_propensity_per_frame(self, query_dir, monkeypatch):
        fits = count_calls(monkeypatch, "fit_propensity")
        matches = count_calls(monkeypatch, "psm_att")
        reps = 3
        run_query(self.spec(query_dir, estimators=("psm",), refuters=("placebo_treatment",),
                            refuter_repetitions=reps))
        # the query's own estimate, then the refuter's original and one per repetition
        assert len(fits) == len(matches) == 1 + 1 + reps


class TestLabelRulePipeline:
    def test_label_rule_applied_before_estimation(self, tmp_path):
        ss = generate(n=400, sigma=0.5, seed=31)
        frame = ss.to_frame()
        for drop in ("tau_true", "e_true", "b_true", "w"):
            frame = frame.drop(drop)
        write_csv(frame, tmp_path / "d.csv")
        (tmp_path / "g.graph").write_text(
            "x0 -> hi_x1; x0 -> y; hi_x1 -> y\n@treatment hi_x1\n@outcome y\n"
        )
        (tmp_path / "q.spec").write_text(
            "data=d.csv\ngraph=g.graph\ntreatment=hi_x1\noutcome=y\n"
            "estimators=regression_adjustment\nlabel_rule = hi_x1 from x1\n"
        )
        rep = run_query(parse_query_spec(tmp_path / "q.spec"))
        assert len(rep["effects"]) == 1


@pytest.fixture(scope="module")
def validation(tmp_path_factory):
    out = tmp_path_factory.mktemp("val")
    return run_validation(n=400, repetitions=2, sigma=1.0, seed=5, out_dir=out), out


class TestRunValidation:
    def test_row_count(self, validation):
        rep, _ = validation
        assert len(rep["rows"]) == 2 * 8
        combos = {(r["learner"], r["base"]) for r in rep["rows"]}
        assert len(combos) == 8

    def test_aggregate_block(self, validation):
        rep, _ = validation
        assert set(rep["aggregate"]) == {
            "S:linear", "S:gbt", "T:linear", "T:gbt",
            "X:linear", "X:gbt", "R:linear", "R:gbt"}
        stats = rep["aggregate"]["T:gbt"]["ate_error"]
        assert set(stats) == {"mean", "std"}

    def test_plot_files(self, validation):
        rep, out = validation
        assert (out / "validation_rows.csv").exists()
        assert (out / "validation_aggregate.csv").exists()
        assert (out / "scatter_T-gbt.csv").exists()
        assert (out / "uplift_S-linear.csv").exists()

    def test_noiseless_tgbt_recovery(self):
        # no outcome noise: the tree T-learner recovers the true mean effect
        # tightly once the arms are dense enough (residual smoothing bias
        # decays slowly in n; see LearnerSpec notes)
        from causet.learners import LearnerSpec
        from causet.metalearners import t_learner

        ss = generate(n=40000, sigma=0.0, seed=77)
        cate = t_learner(ss.to_frame(), "w", "y", ss.feature_names, LearnerSpec("gbt"))
        assert abs(cate.ate - ss.tau_true.mean()) < 0.02

    def test_deterministic(self):
        a = run_validation(n=300, repetitions=1, sigma=1.0, seed=3)
        b = run_validation(n=300, repetitions=1, sigma=1.0, seed=3)
        assert report_to_json(a) == report_to_json(b)


class TestCompare:
    def test_single_report_twelve_rows(self, query_dir, tmp_path):
        spec = parse_query_spec(query_dir / "query.spec")
        rep = run_query(spec)
        comparison = compare_report([rep])
        assert len(comparison["rows"]) == 12
        text = render_table(comparison["columns"], comparison["rows"])
        assert "synthetic_demo" in text and "T:gbt" in text

    def test_multiple_reports_grid(self, query_dir):
        spec = parse_query_spec(query_dir / "query.spec")
        rep1 = run_query(spec)
        rep2 = json.loads(report_to_json(run_query(dataclasses.replace(spec, name="other"))))
        comparison = compare_report([rep1, rep2])
        queries = {r["query"] for r in comparison["rows"]}
        assert queries == {"synthetic_demo", "other"}
        assert len(comparison["rows"]) == 24

    def test_version_mismatch(self, query_dir):
        spec = parse_query_spec(query_dir / "query.spec")
        rep = run_query(spec)
        stale = dict(rep, report_version=99)
        with pytest.raises(SchemaMismatchError):
            compare_report([rep, stale])

    def test_empty_report_warns_and_skips(self, query_dir):
        spec = parse_query_spec(query_dir / "query.spec")
        rep = run_query(spec)
        empty = dict(rep, effects=[])
        with pytest.warns(UserWarning):
            comparison = compare_report([empty, rep])
        assert len(comparison["rows"]) == 12
