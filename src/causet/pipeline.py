"""Query-spec-driven orchestration: load, identify, estimate, refute, report.

A query spec is a key-value text file (``#`` comments, one ``key = value``
per line, comma-separated lists, repeatable ``label_rule`` lines):

    name        = windows_vs_electricity
    data        = homes.csv
    graph       = homes.graph
    treatment   = many_windows
    outcome     = electricity
    estimators  = regression_adjustment, psm, ipw, stratification
    metalearners = T:gbt, S:linear
    refuters    = placebo_treatment, data_subset
    label_rule  = many_windows from window_count
    seed        = 42

Paths are resolved relative to the spec file.  Every run is a pure function
of the resolved spec (defaults included), which is embedded in the report so
any report can be re-run from itself; equal seeds give byte-identical
reports.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import evaluation, metalearners, synth
from .errors import ParseError, RoleError, SchemaMismatchError
from .estimators import (
    DEFAULT_CLIP,
    EffectEstimate,
    fit_propensity,
    ipw_ate,
    psm_att,
    regression_adjustment,
    stratified_ate,
)
from .frame import Frame, LabelRule, derive_binary_label, impute_mean, load_csv, one_hot, split
from .graph import backdoor_sets, parse_graph
from .learners import LearnerSpec
from .refutation import (
    EstimationTask,
    refute_placebo,
    refute_random_common_cause,
    refute_subset,
    refute_unobserved_confounder,
)
from .rng import derive_seed

REPORT_VERSION = 1

# Estimator name -> fn(frame, spec, z, pm) -> EffectEstimate, where ``pm`` is
# the propensity model fitted on ``frame`` over ``z`` (None for the methods in
# NO_PROPENSITY).  Entries look the estimators up by module name when called,
# so a wrapper patched over ``pipeline.psm_att`` (as perfbench's tracer does)
# sees every call; a function object captured here would bypass it.
ESTIMATORS = {
    "regression_adjustment":
        lambda f, spec, z, pm: regression_adjustment(f, spec.treatment, spec.outcome, z),
    "psm": lambda f, spec, z, pm: psm_att(f, spec.treatment, spec.outcome, z, pm),
    "ipw": lambda f, spec, z, pm: ipw_ate(f, spec.treatment, spec.outcome, pm),
    "stratification":
        lambda f, spec, z, pm: stratified_ate(f, spec.treatment, spec.outcome, pm, k=spec.strata),
}
# Refuter name -> fn(task, frame, spec, seed) -> RefutationReport, where
# ``task`` re-runs the target estimator.  Looked up by name when called, for
# the same reason as ESTIMATORS.
REFUTERS = {
    "random_common_cause": lambda task, f, spec, seed: refute_random_common_cause(
        task, f, spec.refuter_repetitions, seed),
    "placebo_treatment": lambda task, f, spec, seed: refute_placebo(
        task, f, spec.refuter_repetitions, seed),
    "data_subset": lambda task, f, spec, seed: refute_subset(
        task, f, spec.subset_fraction, spec.refuter_repetitions, seed),
    "unobserved_confounder": lambda task, f, spec, seed: refute_unobserved_confounder(
        task, f, spec.confounder_strength_t, spec.confounder_strength_y,
        spec.refuter_repetitions, seed),
}
# Estimators and meta-learners that use no propensity model.
NO_PROPENSITY = frozenset({"regression_adjustment", "S", "T"})

ESTIMATOR_NAMES = tuple(ESTIMATORS)
REFUTER_NAMES = tuple(REFUTERS)
LEARNER_NAMES = tuple(metalearners.EFFECTS)
BASE_NAMES = ("linear", "gbt")
VALIDATION_COMBOS = tuple(
    (learner, base) for learner in LEARNER_NAMES for base in BASE_NAMES
)


@dataclass(frozen=True)
class QuerySpec:
    """One causal query: data, graph, method selection, and seeds."""

    data: str
    graph: str
    treatment: str
    outcome: str
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    metalearners: tuple[tuple[str, str], ...] = ()
    refuters: tuple[str, ...] = ()
    seed: int = 0
    label_rules: tuple[LabelRule, ...] = ()
    name: str = "query"
    context: str = ""
    propensity_clip: float = DEFAULT_CLIP
    strata: int = 5
    refuter_repetitions: int = 100
    subset_fraction: float = 0.8
    confounder_strength_t: float = 0.5
    confounder_strength_y: float = 0.5

    def __post_init__(self):
        for e in self.estimators:
            if e not in ESTIMATOR_NAMES:
                raise ParseError(f"unknown estimator {e!r}")
        for learner, base in self.metalearners:
            if learner not in LEARNER_NAMES or base not in BASE_NAMES:
                raise ParseError(f"unknown metalearner {learner}:{base}")
        for r in self.refuters:
            if r not in REFUTER_NAMES:
                raise ParseError(f"unknown refuter {r!r}")
        if not self.estimators and not self.metalearners:
            raise ParseError("select at least one estimator or metalearner")


def parse_query_spec(path: str | Path, default_seed: int | None = 0) -> QuerySpec:
    """Parse a query-spec file; relative paths resolve against its directory.

    ``default_seed`` is the seed when the file has no ``seed`` key; pass
    None to leave ``seed`` None then, so the caller can tell.
    """
    path = Path(path)
    base_dir = path.parent
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read query spec {path}: {exc}") from exc

    values: dict[str, str] = {}
    rules: list[LabelRule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "label_rule":
            parts = value.split()
            if len(parts) != 3 or parts[1] != "from":
                raise ParseError(
                    f"{path}:{lineno}: label_rule must be '<target> from <source>'"
                )
            rules.append(LabelRule(source=parts[2], target=parts[0]))
        elif key in values:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            values[key] = value

    def split_list(key: str) -> list[str]:
        raw = values.pop(key)
        return [tok.strip() for tok in raw.split(",") if tok.strip()]

    kwargs: dict = {"label_rules": tuple(rules), "seed": default_seed}
    for key in ("data", "graph"):
        if key not in values:
            raise ParseError(f"{path}: missing required key {key!r}")
        kwargs[key] = str((base_dir / values.pop(key)))
    for key in ("treatment", "outcome"):
        if key not in values:
            raise ParseError(f"{path}: missing required key {key!r}")
        kwargs[key] = values.pop(key)
    if "estimators" in values:
        kwargs["estimators"] = tuple(split_list("estimators"))
    if "metalearners" in values:
        combos = []
        for tok in split_list("metalearners"):
            parts = tok.split(":")
            if len(parts) != 2:
                raise ParseError(f"{path}: metalearner {tok!r} must be '<learner>:<base>'")
            combos.append((parts[0], parts[1]))
        kwargs["metalearners"] = tuple(combos)
    if "refuters" in values:
        kwargs["refuters"] = tuple(split_list("refuters"))
    for key, conv in (
        ("seed", int),
        ("strata", int),
        ("refuter_repetitions", int),
        ("propensity_clip", float),
        ("subset_fraction", float),
        ("confounder_strength_t", float),
        ("confounder_strength_y", float),
    ):
        if key in values:
            try:
                kwargs[key] = conv(values.pop(key))
            except ValueError:
                raise ParseError(f"{path}: key {key!r} needs a {conv.__name__}") from None
    for key in ("name", "context"):
        if key in values:
            kwargs[key] = values.pop(key)
    if "name" not in kwargs:
        kwargs["name"] = path.stem
    if values:
        raise ParseError(f"{path}: unknown keys {sorted(values)}")
    return QuerySpec(**kwargs)


def resolved_spec(spec: QuerySpec) -> dict:
    """The full spec, defaults included, as a plain JSON-ready mapping."""
    out = dataclasses.asdict(spec)
    out["metalearners"] = [f"{l}:{b}" for l, b in spec.metalearners]
    out["label_rules"] = [dataclasses.asdict(r) for r in spec.label_rules]
    return out


# -- shared plumbing -----------------------------------------------------------


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and value != value:  # NaN has no JSON spelling
        return None
    return value


def report_to_json(report: Mapping) -> str:
    """Canonical JSON rendering; identical reports give identical bytes."""
    return json.dumps(_jsonable(dict(report)), indent=2, sort_keys=True) + "\n"


def _write_rows_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    def cell(v) -> str:
        if isinstance(v, float):
            return repr(v)
        return str(v)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def _effect_row(est: EffectEstimate, control_mean: float | None) -> dict:
    relative = None
    if control_mean not in (None, 0.0):
        relative = est.value / control_mean
    return {
        "method": est.method,
        "estimand": est.estimand,
        "effect": est.value,
        "relative_effect": relative,
        "n_treated": est.n_treated,
        "n_control": est.n_control,
        "adjustment_set": list(est.adjustment_set),
        "seed": est.seed,
    }


def _prepare_frame(f: Frame, spec: QuerySpec, z: Sequence[str]) -> tuple[Frame, tuple[str, ...]]:
    """Apply the preprocessing recipe: encode categorical adjusters, impute."""
    zcols: list[str] = []
    for name in z:
        if f.kind(name) == "categorical":
            before = set(f.names)
            f = one_hot(f, name)
            zcols.extend(sorted(set(f.names) - before))
        else:
            zcols.append(name)
    for name in (*zcols, spec.outcome):
        if f.column(name).missing.any():
            f = impute_mean(f, name)
    return f, tuple(zcols)


def _fit_metalearner(learner, base_spec, frame, t, y, z, pm, t_fits):
    """Fit one meta-learner; ``t_fits`` holds the T-learners fitted on this frame.

    The caller passes one empty dict per frame.  T and X share the
    T-learner of each base (X's stage 1 is its two arm models), so it is
    fitted at most once per frame and base, whichever of T and X comes first.
    """
    if learner == "S":
        return metalearners.s_learner(frame, t, y, z, base_spec)
    if learner == "R":
        return metalearners.r_learner(frame, t, y, z, base_spec, pm)
    if base_spec not in t_fits:
        t_fits[base_spec] = metalearners.t_learner(frame, t, y, z, base_spec)
    if learner == "T":
        return t_fits[base_spec]
    return metalearners.x_learner(frame, t, y, z, base_spec, pm, t_fits[base_spec])


def _propensity(frame: Frame, spec: QuerySpec, z: Sequence[str], methods: Sequence[str]):
    """The propensity model when any of ``methods`` uses one, else None."""
    if all(m in NO_PROPENSITY for m in methods):
        return None
    return fit_propensity(frame, spec.treatment, z, clip=spec.propensity_clip)


def _estimator_task(method: str, spec: QuerySpec, z: tuple[str, ...]) -> EstimationTask:
    """``method`` adjusting for ``z``; each run refits the propensity model on its frame."""

    def run(frame: Frame, z: tuple[str, ...]) -> float:
        return ESTIMATORS[method](frame, spec, z, _propensity(frame, spec, z, (method,))).value

    return EstimationTask(estimate=run, treatment=spec.treatment, outcome=spec.outcome,
                          adjustment=z)


def run_query(spec: QuerySpec, out_dir: str | Path | None = None) -> dict:
    """Execute one query end to end and return its report document.

    Applies label rules, identifies the adjustment set (first minimal
    backdoor set; fails fast when unidentifiable), runs every selected
    estimator and metalearner, runs every selected refuter against the
    first selected estimator, and emits plot-data CSVs when ``out_dir``
    is given.  Deterministic per seed.
    """
    f = load_csv(spec.data)
    for rule in spec.label_rules:
        f = derive_binary_label(f, rule)

    g = parse_graph(Path(spec.graph).read_text(encoding="utf-8"))
    if g.role(spec.treatment) != "treatment":
        raise RoleError(f"graph does not mark {spec.treatment!r} as treatment")
    if g.role(spec.outcome) != "outcome":
        raise RoleError(f"graph does not mark {spec.outcome!r} as outcome")
    all_sets = backdoor_sets(g, spec.treatment, spec.outcome)
    z_nodes = all_sets[0]

    f, z = _prepare_frame(f, spec, z_nodes)
    t, y = spec.treatment, spec.outcome
    tv = f.binary_vector(t)
    yv = f.column(y).values
    controls = yv[tv == 0.0]
    control_mean = float(controls.mean()) if controls.size else None

    pm = _propensity(f, spec, z, (*spec.estimators, *(l for l, _ in spec.metalearners)))

    effects = []
    ite_files: dict[str, str] = {}
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    for method in spec.estimators:
        effects.append(_effect_row(ESTIMATORS[method](f, spec, z, pm), control_mean))

    t_fits: dict = {}
    for learner, base in spec.metalearners:
        base_spec = LearnerSpec(base)
        cate = _fit_metalearner(learner, base_spec, f, t, y, z, pm, t_fits)
        label = f"{learner}:{base}"
        effects.append(
            {
                "method": label,
                "estimand": "ATE",
                "effect": cate.ate,
                "relative_effect": (cate.ate / control_mean) if control_mean else None,
                "n_treated": int(tv.sum()),
                "n_control": int((1 - tv).sum()),
                "adjustment_set": list(z),
                "seed": None,
            }
        )
        if out is not None:
            fname = f"ite_{learner}-{base}.csv"
            cate.write_ite_csv(out / fname)
            ite_files[label] = fname

    refutations = []
    if spec.refuters:
        if not spec.estimators:
            raise ParseError("refuters need at least one selected estimator to target")
        target = spec.estimators[0]
        task = _estimator_task(target, spec, z)
        for index, refuter in enumerate(spec.refuters):
            rep = REFUTERS[refuter](task, f, spec, derive_seed(spec.seed, index))
            refutations.append(
                {
                    "refuter": rep.refuter,
                    "target_method": target,
                    "original_effect": rep.original_effect,
                    "mean_refuted": rep.mean_refuted,
                    "relative_change": rep.relative_change,
                    "p_value": rep.p_value,
                    "repetitions": rep.repetitions,
                    "seed": rep.seed,
                    "verdict": rep.verdict,
                    "verdict_rule": rep.verdict_rule,
                }
            )

    plot_files: dict = {}
    if out is not None:
        _write_rows_csv(
            out / "effects.csv",
            ("method", "effect", "relative_effect"),
            [
                (row["method"], row["effect"], "" if row["relative_effect"] is None else row["relative_effect"])
                for row in effects
            ],
        )
        plot_files["effects"] = "effects.csv"
        if ite_files:
            plot_files["ite"] = ite_files
        if refutations:
            _write_rows_csv(
                out / "refutations.csv",
                ("refuter", "target_method", "original_effect", "mean_refuted",
                 "relative_change", "p_value", "verdict"),
                [
                    (r["refuter"], r["target_method"], r["original_effect"], r["mean_refuted"],
                     r["relative_change"], r["p_value"], r["verdict"])
                    for r in refutations
                ],
            )
            plot_files["refutations"] = "refutations.csv"

    return {
        "report_version": REPORT_VERSION,
        "kind": "query",
        "query": resolved_spec(spec),
        "adjustment_set": list(z_nodes),
        "adjustment_sets_considered": [list(s) for s in all_sets],
        "control_outcome_mean": control_mean,
        "effects": effects,
        "refutations": refutations,
        "plot_files": plot_files,
    }


# -- synthetic validation ------------------------------------------------------


def run_validation(
    n: int = 10000,
    repetitions: int = 10,
    sigma: float = 1.0,
    seed: int = 0,
    out_dir: str | Path | None = None,
    train_fraction: float = 0.8,
    gbt_spec: LearnerSpec | None = None,
) -> dict:
    """Fit all eight learner/base combos on synthetic sets and score them.

    Per repetition: generate a fresh synthetic set, split train/validation,
    fit every combo on the train part, then record train and validation MSE
    of predicted effects against the true ones, validation KL divergence and
    AUUC, the model ATE, and its error against the repetition's true mean
    effect.  Aggregates are means and standard deviations across repetitions.

    Because ground truth is available here, ``kld_val`` measures how far the
    true-effect distribution diverges from each learner's predicted one
    (truth as the first argument, so a learner whose predictions cover none
    of the truth's range scores high), and ``auuc_val`` accumulates known
    true effects along the predicted ranking, which is immune to the
    generator's confounded treatment assignment.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    base_specs = {"linear": LearnerSpec("linear"), "gbt": gbt_spec or LearnerSpec("gbt")}
    if base_specs["gbt"].kind != "gbt":
        raise ValueError("gbt_spec must have kind 'gbt'")
    rows = []
    plot_files: dict = {}
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    for rep in range(repetitions):
        rep_seed = derive_seed(seed, rep)
        dataset = synth.generate(n=n, sigma=sigma, seed=derive_seed(rep_seed, 0))
        frame = dataset.to_frame()
        train, val = split(frame, train_fraction, seed=derive_seed(rep_seed, 1))
        z = dataset.feature_names
        pm = fit_propensity(train, "w", z)
        tau_mean = float(dataset.tau_true.mean())
        tau_train = train.values("tau_true")
        tau_val = val.values("tau_true")

        t_fits: dict = {}
        for learner, base in VALIDATION_COMBOS:
            cate = _fit_metalearner(learner, base_specs[base], train, "w", "y", z, pm, t_fits)
            ite_val = cate.predict_ite(val)
            scatter = evaluation.prediction_scatter(ite_val, tau_val)
            curve = evaluation.uplift_curve_true(ite_val, tau_val)
            rows.append(
                {
                    "rep": rep,
                    "learner": learner,
                    "base": base,
                    "mse_train": evaluation.mse(cate.ite, tau_train),
                    "mse_val": evaluation.mse(ite_val, tau_val),
                    "kld_val": evaluation.kl_divergence(tau_val, ite_val),
                    "auuc_val": curve.auuc,
                    "ate": cate.ate,
                    "tau_true_mean": tau_mean,
                    "ate_error": abs(cate.ate - tau_mean),
                    "scatter_slope": scatter.slope,
                    "scatter_intercept": scatter.intercept,
                }
            )
            if rep == 0 and out is not None:
                tag = f"{learner}-{base}"
                _write_rows_csv(
                    out / f"scatter_{tag}.csv",
                    ("tau_true", "ite_pred"),
                    list(zip(tau_val.tolist(), ite_val.tolist())),
                )
                _write_rows_csv(
                    out / f"uplift_{tag}.csv",
                    ("fraction", "cumulative_gain"),
                    list(zip(curve.fractions.tolist(), curve.gains.tolist())),
                )
                plot_files[f"scatter_{tag}"] = f"scatter_{tag}.csv"
                plot_files[f"uplift_{tag}"] = f"uplift_{tag}.csv"

    metrics = ("mse_train", "mse_val", "kld_val", "auuc_val", "ate", "ate_error",
               "scatter_slope", "scatter_intercept")
    aggregate: dict[str, dict] = {}
    for learner, base in VALIDATION_COMBOS:
        combo_rows = [r for r in rows if r["learner"] == learner and r["base"] == base]
        label = f"{learner}:{base}"
        aggregate[label] = {
            m: {
                "mean": float(np.mean([r[m] for r in combo_rows])),
                "std": float(np.std([r[m] for r in combo_rows])),
            }
            for m in metrics
        }

    if out is not None:
        header = ("rep", "learner", "base", *metrics)
        _write_rows_csv(
            out / "validation_rows.csv",
            header,
            [tuple(r[h] if h in r else "" for h in header) for r in rows],
        )
        plot_files["rows"] = "validation_rows.csv"
        _write_rows_csv(
            out / "validation_aggregate.csv",
            ("combo", "metric", "mean", "std"),
            [
                (label, m, stats["mean"], stats["std"])
                for label, per_metric in aggregate.items()
                for m, stats in per_metric.items()
            ],
        )
        plot_files["aggregate"] = "validation_aggregate.csv"

    return {
        "report_version": REPORT_VERSION,
        "kind": "validation",
        "config": {
            "n": n,
            "p": 5,
            "repetitions": repetitions,
            "sigma": sigma,
            "seed": seed,
            "train_fraction": train_fraction,
        },
        "rows": rows,
        "aggregate": aggregate,
        "plot_files": plot_files,
    }


# -- cross-report comparison ---------------------------------------------------


def compare_report(reports: Sequence[Mapping]) -> dict:
    """Consolidate query reports into one (query, method) table.

    Raises :class:`SchemaMismatchError` when report versions differ from
    this module's.  Reports without any effect rows are skipped with a
    warning.
    """
    if not reports:
        raise ValueError("need at least one report")
    columns = ("query", "method", "estimand", "effect", "relative_effect", "refutations")
    rows = []
    for report in reports:
        version = report.get("report_version")
        if version != REPORT_VERSION:
            raise SchemaMismatchError(
                f"report version {version!r} does not match {REPORT_VERSION}"
            )
        if report.get("kind") != "query":
            raise SchemaMismatchError("compare consumes query reports only")
        qname = report.get("query", {}).get("name", "query")
        effects = report.get("effects", [])
        if not effects:
            warnings.warn(f"report {qname!r} has no effect rows; omitted", stacklevel=2)
            continue
        by_method: dict[str, list[str]] = {}
        for r in report.get("refutations", []):
            by_method.setdefault(r["target_method"], []).append(
                f"{r['refuter']}={r['verdict']}"
            )
        for row in effects:
            rows.append(
                {
                    "query": qname,
                    "method": row["method"],
                    "estimand": row["estimand"],
                    "effect": row["effect"],
                    "relative_effect": row["relative_effect"],
                    "refutations": " ".join(by_method.get(row["method"], [])),
                }
            )
    return {"report_version": REPORT_VERSION, "kind": "comparison",
            "columns": list(columns), "rows": rows}


def render_table(columns: Sequence[str], rows: Sequence[Mapping]) -> str:
    """Fixed-width text table with one aligned column per field."""
    def fmt(v) -> str:
        if v is None or v == "":
            return "-"
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    cells = [[fmt(r.get(c)) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
        for i, c in enumerate(columns)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
