import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from oracles import backdoor_bruteforce, fresh_propensity_task, linear_sem

from causet import estimators, metalearners, pipeline
from causet.errors import (KindError, NotIdentifiableError, ParseError, RaggedRowError, RoleError,
                           SchemaMismatchError, TypeConflictError, UnknownColumnError)
from causet.frame import Column, Frame, LabelRule, impute_mean, load_csv, one_hot, write_csv
from causet.graph import backdoor_sets, parse_graph
from causet.rng import derive_seed, make_rng
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

REPO = Path(__file__).resolve().parents[1]

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


VALID_SPEC = """data = a.csv
graph = g.graph
treatment = t
outcome = y
"""


class TestSpecMessages:
    """One fault per spec, each with its exact message."""

    def message(self, tmp_path, text: str) -> str:
        p = tmp_path / "q.spec"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_query_spec(p)
        return str(info.value).replace(str(p), "SPEC")

    @pytest.mark.parametrize("key", ["data", "graph", "treatment", "outcome"])
    def test_missing_required_key(self, tmp_path, key):
        text = "".join(line + "\n" for line in VALID_SPEC.splitlines()
                       if not line.startswith(key))
        assert self.message(tmp_path, text) == f"SPEC: missing required key {key!r}"

    @pytest.mark.parametrize("line, message", [
        ("strata = 2.5", "SPEC: key 'strata' needs a int"),
        ("propensity_clip = x", "SPEC: key 'propensity_clip' needs a float"),
        ("metalearners = T-gbt", "SPEC: metalearner 'T-gbt' must be '<learner>:<base>'"),
        ("bogus = 1", "SPEC: unknown keys ['bogus']"),
        ("label_rules = a", "SPEC: unknown keys ['label_rules']"),
        ("treatment = u", "SPEC:5: duplicate key 'treatment'"),
        ("label_rule = t of raw", "SPEC:5: label_rule must be '<target> from <source>'"),
    ], ids=["int", "float", "metalearner", "unknown", "label_rules", "duplicate",
            "label_rule"])
    def test_single_fault(self, tmp_path, line, message):
        assert self.message(tmp_path, VALID_SPEC + line + "\n") == message

    def test_conversion_errors_in_declared_order(self, tmp_path):
        text = VALID_SPEC + "propensity_clip = y\nstrata = x\n"
        assert self.message(tmp_path, text) == "SPEC: key 'strata' needs a int"


class TestReadmeSpecTable:
    """README's "Query-spec files" table lists exactly the QuerySpec fields."""

    def rows(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        section = text.split("## Query-spec files", 1)[1].split("\n## ", 1)[0]
        for line in section.splitlines():
            if line.startswith("| `"):
                cells = [c.strip() for c in line.strip("|").split("|")]
                yield re.findall(r"`([^`]+)`", cells[0]), cells[2]

    def test_keys_are_fields(self):
        fields = {f.name: f.default for f in dataclasses.fields(QuerySpec)}
        listed = set()
        for keys, default_cell in self.rows():
            for key in keys:
                key = "label_rules" if key == "label_rule" else key
                assert key in fields
                listed.add(key)
                if isinstance(fields[key], (int, float)):
                    assert default_cell == repr(fields[key]), key
        assert listed == set(fields)


def _as_lists(value):
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value


def _assert_json_native(value, where="report"):
    if isinstance(value, dict):
        for k, v in value.items():
            assert type(k) is str, f"{where}: key {k!r}"
            _assert_json_native(v, f"{where}.{k}")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _assert_json_native(v, f"{where}[{i}]")
    else:
        assert type(value) in (str, int, float, bool, type(None)), f"{where}: {type(value)}"
        assert not (type(value) is float and math.isnan(value)), f"{where}: NaN"


class TestReportsJsonNative:
    """Reports are dumped as built, so every part must already be plain JSON."""

    def check(self, rep):
        _assert_json_native(rep)
        assert json.loads(report_to_json(rep)) == _as_lists(rep)

    def test_query_every_method_and_refuter(self, query_dir):
        spec = dataclasses.replace(parse_query_spec(query_dir / "query.spec"),
                                   refuters=pipeline.REFUTER_NAMES, refuter_repetitions=3)
        self.check(run_query(spec))

    def test_windows_sample(self):
        self.check(run_query(parse_query_spec(REPO / "sample_queries" / "windows.spec")))

    def test_validation(self):
        self.check(run_validation(n=500, repetitions=1))

    def test_zero_original_effect_parses_strictly(self, tmp_path):
        # With no adjustment every score ties, so each treated row matches the
        # first control: ATT = 1 - 1 = 0 exactly.  Other controls have y = 0,
        # so a random common cause moves the mean off 0.
        w = np.array([0.0, 1.0] * 20)
        y = np.where(w == 1.0, 1.0, 0.0)
        y[0] = 1.0
        (tmp_path / "data.csv").write_text(
            "w,y\n" + "".join(f"{a:g},{b:g}\n" for a, b in zip(w, y)), encoding="utf-8")
        (tmp_path / "model.graph").write_text("w -> y\n@treatment w\n@outcome y\n",
                                              encoding="utf-8")
        (tmp_path / "query.spec").write_text(
            "name = zero\ndata = data.csv\ngraph = model.graph\ntreatment = w\n"
            "outcome = y\nestimators = psm\nrefuters = random_common_cause\n"
            "refuter_repetitions = 5\nseed = 3\n", encoding="utf-8")
        out = tmp_path / "out"
        rep = run_query(parse_query_spec(tmp_path / "query.spec"), out_dir=out)
        row = rep["refutations"][0]
        assert (row["original_effect"], row["verdict"]) == (0.0, "fail")
        assert row["mean_refuted"] != 0.0 and row["relative_change"] is None

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        assert json.loads(report_to_json(rep), parse_constant=reject) == _as_lists(rep)
        cells = (out / "refutations.csv").read_text(encoding="utf-8").splitlines()[1].split(",")
        assert cells[4] == ""

    def test_non_finite_number_is_refused(self):
        with pytest.raises(ValueError):
            report_to_json({"value": math.inf})


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

    def test_refuters_without_an_estimator_fail_before_any_fit(self, query_dir, tmp_path):
        spec = dataclasses.replace(
            parse_query_spec(query_dir / "query.spec"), estimators=(),
            metalearners=(("T", "linear"),), refuters=("placebo_treatment",))
        with pytest.raises(ParseError, match="refuters need at least one selected estimator"):
            run_query(spec, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


def count_calls(monkeypatch, name, module=pipeline):
    """Wrap ``<module>.<name>`` in a counting wrapper; return the call list."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestDispatchTables:
    """The tables look functions up by module name when called, and the
    propensity model is fitted (and psm matches) once per query and once per
    refuted frame whose treatment or adjustment columns are new."""

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
        # the query's own estimate, then one per repetition: the refuter takes
        # the original effect from the query's effect row
        assert len(fits) == len(matches) == 1 + reps

    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize("refuter, fits_per_rep", [
        ("unobserved_confounder", False),
        ("placebo_treatment", True),
        ("random_common_cause", True),
        ("data_subset", True),
    ])
    def test_refuter_refits_only_when_treatment_or_adjustment_moves(
            self, query_dir, monkeypatch, refuter, fits_per_rep, reps):
        fits = count_calls(monkeypatch, "fit_propensity")
        run_query(self.spec(query_dir, estimators=("psm",), refuters=(refuter,),
                            refuter_repetitions=reps))
        # the query's own fit, then one per repetition, or none when a
        # repetition replaces only the outcome column: it reuses the query's
        assert len(fits) == 1 + (reps if fits_per_rep else 0)

    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize("refuter, matches_per_rep", [
        ("unobserved_confounder", False),
        ("placebo_treatment", True),
        ("random_common_cause", True),
        ("data_subset", True),
    ])
    def test_refuter_matches_again_only_when_scores_or_treatment_move(
            self, query_dir, monkeypatch, refuter, matches_per_rep, reps):
        matches = count_calls(monkeypatch, "_match_controls", estimators)
        run_query(self.spec(query_dir, estimators=("psm",), refuters=(refuter,),
                            refuter_repetitions=reps))
        # the query's own matching, then one per repetition, or none when a
        # repetition keeps the query's treatment and adjustment columns
        assert len(matches) == 1 + (reps if matches_per_rep else 0)


def _hex_row(row: dict) -> dict:
    """The row with every float as ``float.hex``, so equality is bitwise."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}


class TestRefutationReuse:
    """Reusing the query's propensity fit, scores and matching gives every
    refutation row the very bits of a task that fits and matches in every run."""

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("target", ["psm", "ipw", "stratification"])
    def test_rows_match_a_task_that_keeps_nothing(self, query_dir, target, seed):
        spec = dataclasses.replace(parse_query_spec(query_dir / "query.spec"),
                                   estimators=(target,), metalearners=(), seed=seed,
                                   refuters=pipeline.REFUTER_NAMES, refuter_repetitions=3)
        rows = run_query(spec)["refutations"]
        graph = parse_graph(Path(spec.graph).read_text(encoding="utf-8"))
        z_nodes = backdoor_sets(graph, spec.treatment, spec.outcome)[0]
        f, z = pipeline._prepare_frame(load_csv(spec.data), spec, z_nodes)
        task = fresh_propensity_task(target, spec, z)
        expected = []
        for index, refuter in enumerate(spec.refuters):
            rep = pipeline.REFUTERS[refuter](task, f, spec, derive_seed(seed, index), None)
            row = {**dataclasses.asdict(rep), "target_method": target}
            del row["refuted_effects"]
            expected.append(_hex_row(row))
        assert [_hex_row(row) for row in rows] == expected


class TestNuisanceFits:
    """The propensity model and the T-learner are fitted on first use, at most
    once per frame (and base), and every refuter restates the target's effect."""

    def test_validation_fits_each_once_per_rep(self, monkeypatch):
        fits = count_calls(monkeypatch, "fit_propensity")
        t_calls = count_calls(monkeypatch, "t_learner", metalearners)
        run_validation(n=400, repetitions=2)
        # per rep: one propensity model for X and R, one T-learner per base for T and X
        assert (len(fits), len(t_calls)) == (2, 4)

    def test_t_and_x_share_one_t_learner(self, query_dir, monkeypatch):
        t_calls = count_calls(monkeypatch, "t_learner", metalearners)
        spec = parse_query_spec(query_dir / "query.spec")
        run_query(dataclasses.replace(spec, metalearners=(("T", "linear"), ("X", "linear"))))
        assert len(t_calls) == 1

    def test_query_fits_each_once(self, query_dir, monkeypatch):
        fits = count_calls(monkeypatch, "fit_propensity")
        t_calls = count_calls(monkeypatch, "t_learner", metalearners)
        spec = dataclasses.replace(
            parse_query_spec(query_dir / "query.spec"), estimators=("psm", "ipw", "stratification"),
            metalearners=(("X", "linear"), ("X", "gbt"), ("R", "linear"), ("T", "gbt")))
        run_query(spec)
        # one propensity model for psm, ipw, stratification, X and R; one
        # T-learner per base, made for X and reused by T:gbt
        assert (len(fits), len(t_calls)) == (1, 2)

    def test_refutations_restate_the_target_effect(self, query_dir):
        spec = dataclasses.replace(
            parse_query_spec(query_dir / "query.spec"), estimators=("psm",), metalearners=(),
            refuters=pipeline.REFUTER_NAMES, refuter_repetitions=2)
        report = run_query(spec)
        effect = report["effects"][0]["effect"]
        originals = [r["original_effect"].hex() for r in report["refutations"]]
        assert originals == [effect.hex()] * len(pipeline.REFUTER_NAMES)


class TestLinearSem:
    """Identification and estimation together, where a wrong set gives a
    wrong number: ``run_query`` with ``regression_adjustment`` on the CSV
    and graph of random linear SEMs (:func:`oracles.linear_sem`) recovers
    the sum of path products, and says "not identifiable" exactly where
    brute force finds no backdoor set."""

    # Stated before the run.  At n=20000 the bound is 0.15 (an exploratory run
    # of 200 seeds read at most 0.081); n=10000 halves the rows, so the
    # bound widens by sqrt(2) to 0.212.  Dropping a set member, adding an
    # observed descendant of the treatment or adjusting for nothing each
    # breaks it on a dozen or more of these seeds.
    N, BOUND, SEEDS = 10_000, 0.15 * math.sqrt(2), range(60)

    def test_effect_within_bound_or_not_identifiable(self, tmp_path):
        errors, unidentified = {}, []
        for seed in self.SEEDS:
            frame, graph, truth = linear_sem(seed, 7, self.N)
            write_csv(frame, tmp_path / "data.csv")
            (tmp_path / "model.graph").write_text(graph, encoding="utf-8")
            g = parse_graph(graph)
            spec = QuerySpec(data=str(tmp_path / "data.csv"), graph=str(tmp_path / "model.graph"),
                             treatment=g.treatment, outcome=g.outcome,
                             estimators=("regression_adjustment",))
            if not backdoor_bruteforce(g, g.treatment, g.outcome):
                with pytest.raises(NotIdentifiableError):
                    run_query(spec)
                unidentified.append(seed)
                continue
            errors[seed] = abs(run_query(spec)["effects"][0]["effect"] - truth)
        assert {s: e for s, e in errors.items() if e > self.BOUND} == {}
        assert unidentified and len(errors) > 40  # both branches run


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


UNIDENTIFIABLE = "U -> w; U -> y; w -> y\n@treatment w\n@outcome y\n@unobserved U\n"
NO_OUTCOME_ROLE = "x0 -> w; x0 -> y; w -> y\n@treatment w\n"


class TestIdentifyBeforeLoad:
    """``run_query`` identifies from the graph alone, then parses only the
    columns the query reads; every other column is still checked for row
    shape, encoding and a unique name."""

    def spec(self, query_dir, tmp_path, graph=None, csv=None, **changes):
        spec = parse_query_spec(query_dir / "query.spec")
        if graph is not None:
            (tmp_path / "q.graph").write_text(graph, encoding="utf-8")
            changes["graph"] = str(tmp_path / "q.graph")
        if csv is not None:
            (tmp_path / "q.csv").write_text(csv, encoding="utf-8")
            changes["data"] = str(tmp_path / "q.csv")
        return dataclasses.replace(spec, estimators=("regression_adjustment",), metalearners=(),
                                   **changes)

    @pytest.mark.parametrize("graph, error", [(UNIDENTIFIABLE, NotIdentifiableError),
                                              (NO_OUTCOME_ROLE, RoleError)],
                             ids=["unidentifiable", "role"])
    def test_a_graph_fault_outranks_a_data_fault(self, query_dir, tmp_path, graph, error):
        ragged = "x0,w,y\n0.5,1,2\n0.25,0\n"
        with pytest.raises(error):
            run_query(self.spec(query_dir, tmp_path, graph=graph, csv=ragged))
        with pytest.raises(error):  # as before: a graph fault alone
            run_query(self.spec(query_dir, tmp_path, graph=graph))

    def test_a_data_fault_alone_raises_as_before(self, query_dir, tmp_path):
        with pytest.raises(RaggedRowError, match=r"row 3 has 2 fields, header has 3"):
            run_query(self.spec(query_dir, tmp_path, graph=GRAPH,
                                csv="x0,w,y\n0.5,1,2\n0.25,0\n"))

    def test_a_column_the_query_reads_is_still_required(self, query_dir, tmp_path):
        with pytest.raises(UnknownColumnError, match="'x4'"):
            run_query(self.spec(query_dir, tmp_path,
                                csv="x0,x1,x2,x3,w,y\n0,1,2,3,1,2\n1,0,2,3,0,1\n"))

    def test_loads_the_columns_the_query_reads(self, query_dir, tmp_path, monkeypatch):
        calls = []
        original = pipeline.load_csv

        def load(path, columns):
            calls.append(set(columns))
            return original(path, columns)

        monkeypatch.setattr(pipeline, "load_csv", load)
        run_query(self.spec(query_dir, tmp_path))
        assert calls == [{"w", "y", "x0", "x1", "x2", "x3", "x4"}]
        calls.clear()
        # A rule's source is read; its target is not, since the rule replaces
        # it (here x3, a CSV column the graph does not name).
        rules = (LabelRule(source="x1", target="hi"), LabelRule(source="x2", target="x3"))
        run_query(self.spec(query_dir, tmp_path,
                            graph="x0 -> hi; x0 -> y; hi -> y\n@treatment hi\n@outcome y\n",
                            treatment="hi", label_rules=rules))
        assert calls == [{"hi", "y", "x0", "x1", "x2"}]

    def test_an_unread_column_named_like_a_one_hot_column(self, tmp_path):
        # Encoding the adjuster c makes c=a.  A CSV column c=a that the query
        # does not read is not loaded, so nothing clashes and the report is
        # the one without it; loading every column raised TypeConflictError.
        spec = _text_cell_query(tmp_path)
        f = load_csv(spec.data)
        clash = f.with_column(Column("c=a", "numeric", np.arange(f.n_rows, dtype=float)))
        write_csv(clash, tmp_path / "clash.csv")
        with pytest.raises(TypeConflictError, match="'c=a' already exists"):
            one_hot(load_csv(tmp_path / "clash.csv"), "c")
        narrow = run_query(spec)
        widened = run_query(dataclasses.replace(spec, data=str(tmp_path / "clash.csv")))
        widened["query"]["data"] = narrow["query"]["data"]
        assert report_to_json(widened) == report_to_json(narrow)

    def test_unread_columns_leave_the_report_as_it_was(self, query_dir, tmp_path):
        # Unread columns of text, blank cells and a name the random-common-cause
        # refuter would otherwise avoid: the report is the one without them.
        f = load_csv(query_dir / "data.csv")
        rng = make_rng(3)
        n = f.n_rows
        wide = f.with_column(Column("note", "categorical", rng.choice(["a", "b,c", ""], size=n)),
                             position=0)
        wide = wide.with_column(Column("random_cause", "numeric", rng.standard_normal(n)))
        wide = wide.with_column(Column("gap", "numeric", np.where(rng.uniform(size=n) < 0.5,
                                                                  np.nan, 1.0)))
        write_csv(wide, tmp_path / "wide.csv")
        spec = dataclasses.replace(self.spec(query_dir, tmp_path), refuter_repetitions=3,
                                   refuters=pipeline.REFUTER_NAMES)
        narrow = run_query(spec)
        widened = run_query(dataclasses.replace(spec, data=str(tmp_path / "wide.csv")))
        widened["query"]["data"] = narrow["query"]["data"]
        assert report_to_json(widened) == report_to_json(narrow)

    @pytest.mark.parametrize("csv, error", [
        ("x0,x1,x2,x3,x4,w,y,z\n0,1,0,1,0,1,2,3\n1,0,1,0,1,0,1\n", RaggedRowError),
        ("x0,x1,x2,x3,x4,w,y,z,z\n0,1,0,1,0,1,2,3,4\n1,0,1,0,1,0,1,3,4\n", TypeConflictError),
    ], ids=["ragged", "duplicate_name"])
    def test_a_fault_in_an_unread_column_still_raises(self, query_dir, tmp_path, csv, error):
        with pytest.raises(error):
            run_query(self.spec(query_dir, tmp_path, csv=csv))


def _text_cell_query(d: Path, y_text: Sequence[str] = ()) -> QuerySpec:
    """A query over a CSV with a text adjuster ``c`` and a numeric adjuster
    ``x``, an empty cell in each and one in the outcome ``y``; given
    ``y_text``, the outcome cells are those, repeated."""
    rng = make_rng(23)
    n = 200
    c = rng.choice(np.array(["a", "b"], dtype=object), size=n)
    x = rng.standard_normal(n)
    w = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-x - (c == "a")))).astype(float)
    y = 2.0 * w + x + (c == "a") + rng.standard_normal(n)
    c[0], x[1], y[2] = "", np.nan, np.nan
    if y_text:
        y = np.resize(np.array(y_text, dtype=object), n)
    write_csv(Frame.from_dict({"c": c, "x": x, "w": w, "y": y}), d / "d.csv")
    (d / "g.graph").write_text(
        "c -> w; c -> y; x -> w; x -> y; w -> y\n@treatment w\n@outcome y\n")
    return QuerySpec(data=str(d / "d.csv"), graph=str(d / "g.graph"),
                     treatment="w", outcome="y")


class TestTextCells:
    """Text cells are the only way a categorical column enters a query: as an
    adjuster it is one-hot encoded, as the outcome it is refused."""

    def test_recipe_encodes_and_imputes(self, tmp_path):
        spec = _text_cell_query(tmp_path)
        rep = run_query(spec)
        z = ("c=__missing__", "c=a", "c=b", "x")
        assert [r["adjustment_set"] for r in rep["effects"]] == [list(z)] * 4
        f = load_csv(spec.data)
        assert f.kind("c") == "categorical"
        assert [int(f.missing(name).sum()) for name in "cxy"] == [1, 1, 1]
        f = impute_mean(impute_mean(one_hot(f, "c"), "x"), "y")
        pm = estimators.fit_propensity(f, "w", z, clip=spec.propensity_clip)
        expected = [
            estimators.regression_adjustment(f, "w", "y", z),
            estimators.psm_att(f, "w", "y", pm),
            estimators.ipw_ate(f, "w", "y", pm),
            estimators.stratified_ate(f, "w", "y", pm, k=spec.strata),
        ]
        assert [r["method"] for r in rep["effects"]] == [e.method for e in expected]
        assert [r["effect"] for r in rep["effects"]] == [e.value for e in expected]

    @pytest.mark.parametrize("y_text", [list("abcd"), ["", *"abcd"]],
                             ids=["full", "with_missing_cell"])
    def test_text_outcome_is_refused(self, tmp_path, y_text):
        spec = _text_cell_query(tmp_path, y_text)
        assert load_csv(spec.data).missing("y").any() == ("" in y_text)
        with pytest.raises(KindError, match=r"^outcome 'y' is categorical"):
            run_query(spec)


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


def _sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _written(out) -> dict:
    return {p.name: _sha256(p.read_bytes()) for p in sorted(out.iterdir())}


class TestReportPins:
    """sha256 of every report and sidecar file, taken while each effect row,
    refutation row and sidecar CSV was still built by hand.  The linear fits
    go through the BLAS, so another platform may move the last bits."""

    def test_query_with_all_refuters(self, query_dir, tmp_path):
        spec = dataclasses.replace(parse_query_spec(query_dir / "query.spec"),
                                   refuters=pipeline.REFUTER_NAMES)
        rep = run_query(spec, out_dir=tmp_path)
        # the spec's resolved paths name the temporary directory
        rep = dict(rep, query=dict(rep["query"], data="data.csv", graph="model.graph"))
        assert _sha256(report_to_json(rep)) == (
            "710cc049e5e05a232a289aa5e27f1be2a20cfe9850d44475d380f4516e790745")
        assert _written(tmp_path) == {
            "effects.csv": "eb953814b93a2274446f34a3f9c9d1a29519da15036aed9ecede2f7a830a96f2",
            "ite_R-gbt.csv": "bea850a0a869e483be81c2674cac997d99a0cf2f11ed09ac95c880a037eafc59",
            "ite_R-linear.csv": "1faedb876cc0a713e2a0af497349de7a7fbf06bf456ace7a804fc69d187e314b",
            "ite_S-gbt.csv": "87ac5615217afdbaa682e41d42b6c92f98b00a419081797d0ac45bdaf2d3564b",
            "ite_S-linear.csv": "b847cf1182b18e7727760f1cab05b6513513c02eab42a0eef28186ea03275012",
            "ite_T-gbt.csv": "6e407b33aae80e4f8dfdf6165626a2f64c52a6868b986c893a526d2209e113bf",
            "ite_T-linear.csv": "4c145365b9ad590d396fd82df1e922944bba6020a109dc4e8204fc5a23fe2c16",
            "ite_X-gbt.csv": "0eb9be76b25427ff9a652b4ee3dfb94e99348f5818d865d986cb4b8e29f2c958",
            "ite_X-linear.csv": "578ba8dcc3139cf5e9850c6d7195cf70fdf6b403727ab9fa012bbf2188730a0b",
            "refutations.csv": "3668a274da1f02b0dfde54aaabceb6e4bfceeea062115b9ae76b534f6abc9d7b",
        }

    # Taken before the refuted task reused a propensity fit across frames
    # that share the treatment and adjustment columns.
    PROPENSITY_TARGET_PINS = {
        "psm": "7f9e98a79dc16a868e2bea9cf6656cf85cd92319122c43c3c51d9ad1df79d3a0",
        "ipw": "8129f3bb75dd32ba6bece43022c0969d780bf8844c4520240625e410d59e26b6",
        "stratification": "d46e75913668e0424e8089c5d66e48f49d1b4e355d0d1f26a090920b5bf720e5",
    }

    @pytest.mark.parametrize("target", sorted(PROPENSITY_TARGET_PINS))
    def test_refuting_a_propensity_target(self, query_dir, target):
        spec = dataclasses.replace(parse_query_spec(query_dir / "query.spec"),
                                   estimators=(target,), metalearners=(),
                                   refuters=pipeline.REFUTER_NAMES)
        rep = run_query(spec)
        rep = dict(rep, query=dict(rep["query"], data="data.csv", graph="model.graph"))
        assert _sha256(report_to_json(rep)) == self.PROPENSITY_TARGET_PINS[target]

    def test_validation(self, tmp_path):
        rep = run_validation(n=600, repetitions=1, out_dir=tmp_path)
        assert _sha256(report_to_json(rep)) == (
            "ced76886f2f12799da5e2c9708de7f3103ec598d5b809e9ce340b3d5ef3d9b93")
        assert _written(tmp_path) == {
            "scatter_R-gbt.csv": "842d7afa5857ca8344de9d215a86df925fcbac9f8447305a50362c6a0a31324e",
            "scatter_R-linear.csv": "2788f29a8fc6c5239fad00c85db0f47b498b1a25f82c6070aa6086bcbfef731e",
            "scatter_S-gbt.csv": "c550106ad53b03cc49fe578a2ef6bec07036ffd80cdb4535e74c97f0ac95edd5",
            "scatter_S-linear.csv": "b8455101834a984608d07b890759ee3f83bb831c5bb0f6894630e553d6afe0f9",
            "scatter_T-gbt.csv": "b662feba6344903c203abc830ace934f982e9b0da3e40c46dc82be5102b4ea3d",
            "scatter_T-linear.csv": "ebfff80871685dcc699e965dfbe252aeab3b2cd9fdcef531e6769dc0288384e1",
            "scatter_X-gbt.csv": "ddab757d8bddbcf08627a8a9596df9818db9373c679009540aea46187f8fe33f",
            "scatter_X-linear.csv": "9698cc218a87fc90677f69cae7d3d14f2fbbe87597eb8cf0b17154e0cdbc4c4d",
            "uplift_R-gbt.csv": "4fa8e5023988ee6b288bc5ddb446b95ee12eb82788ba310e9b45a96ba3ccdd15",
            "uplift_R-linear.csv": "0415ace5525dc28d609c0c19de6be277d2ff89c1c89e4bdd6ceb1fdded9ee6c9",
            "uplift_S-gbt.csv": "1f513d1b6d67cb73e36040c6f81084e747485e73fff0251f004d0dc7a13a616b",
            "uplift_S-linear.csv": "a1a1da40cadf3e5e09084feb315c0c93255c6d623e6de9daa13775e37f2a8122",
            "uplift_T-gbt.csv": "074dea7d90a866eb6988675102116a27e62ff4e5fc253bfa96d60385d83fbc6b",
            "uplift_T-linear.csv": "610d61e7e6c77dae0e04700f00d132eb830de7460c529faa64bf254f69ebf348",
            "uplift_X-gbt.csv": "d361ffa10addd413b7ef3052d8687285d0327287a5ab4fbee72943c301f6bd5d",
            "uplift_X-linear.csv": "610d61e7e6c77dae0e04700f00d132eb830de7460c529faa64bf254f69ebf348",
            "validation_aggregate.csv":
                "5e3b9512145f0d21975d1143348ffa4555e64e50d3a7afe0c5d18c69302c0f26",
            "validation_rows.csv": "dc14c659881b161e0cefbbc76fe8dcafd831e773eea0eb309b5d2a6a1084ab50",
        }
